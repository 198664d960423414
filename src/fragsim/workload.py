"""Reproducible access-event streams.

Each simulation step offers every fragment one Bernoulli(``rate``) chance
to emit an access; the requester is then drawn from the fragment's
probability vector by inverse CDF. Restricting to an ``active`` site set
renormalises the remaining mass, preserving the ratios between active
sites. Streams are driven by ``random.Random`` (Mersenne Twister), whose
output for a fixed seed is stable across platforms and Python releases,
so a (spec, seed) pair always reproduces the same events.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Optional, Sequence

import numpy as np

from .topology import SiteId

_ROW_SUM_TOL = 1e-9


class InvalidProbabilityError(ValueError):
    pass


class EmptyActiveSetError(ValueError):
    pass


def symmetric_spec(n: int, x_s: float, hot: SiteId = 0) -> np.ndarray:
    """Access vector with mass ``x_s`` at ``hot`` and the rest spread evenly.

    This is the two-level pattern used throughout the steady-state
    analysis: one designated site at ``x_s``, the other ``n - 1`` sites at
    ``(1 - x_s) / (n - 1)`` each.
    """
    if n < 2:
        raise InvalidProbabilityError(f"need at least two sites, got n={n}")
    if not (0.0 <= x_s <= 1.0):
        raise InvalidProbabilityError(f"x_s must lie in [0, 1], got {x_s}")
    if not (0 <= hot < n):
        raise InvalidProbabilityError(f"hot site {hot} out of range for n={n}")
    vec = np.full(n, (1.0 - x_s) / (n - 1))
    vec[hot] = x_s
    return vec


@dataclass(frozen=True)
class Oscillation:
    """Swap the probability masses of two sites every ``period`` events.

    The period is counted in events emitted for the fragment, not in
    steps, so thinned streams oscillate at the same place in the access
    sequence as dense ones.
    """

    site_a: SiteId
    site_b: SiteId
    period: int

    def __post_init__(self):
        if self.site_a == self.site_b:
            raise InvalidProbabilityError("oscillation sites must differ")
        if self.period < 1:
            raise InvalidProbabilityError(f"oscillation period must be >= 1, got {self.period}")


@dataclass(frozen=True, eq=False)
class WorkloadSpec:
    """Declarative description of an access workload.

    ``probs`` has one row per fragment summing to 1 over the sites.
    ``active`` (None means all sites) restricts requesters to a subset,
    renormalising the row. ``oscillation`` optionally swaps two sites'
    masses periodically.
    """

    probs: np.ndarray
    rate: float = 1.0
    active: Optional[tuple[SiteId, ...]] = None
    seed: int = 0
    oscillation: Optional[Oscillation] = None

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 2:
            raise InvalidProbabilityError(f"probs must be 2-D (fragments x sites), got shape {probs.shape}")
        if np.any(probs < 0):
            raise InvalidProbabilityError("probs entries must be non-negative")
        sums = probs.sum(axis=1)
        bad = np.nonzero(np.abs(sums - 1.0) > _ROW_SUM_TOL)[0]
        if bad.size:
            raise InvalidProbabilityError(f"probs row {bad[0]} sums to {sums[bad[0]]!r}, expected 1")
        object.__setattr__(self, "probs", probs)
        if not (0.0 < self.rate <= 1.0):
            raise InvalidProbabilityError(f"rate must lie in (0, 1], got {self.rate}")
        n = probs.shape[1]
        if self.active is not None:
            active = tuple(sorted(set(int(s) for s in self.active)))
            if not active:
                raise EmptyActiveSetError("active site set is empty")
            if active[0] < 0 or active[-1] >= n:
                raise InvalidProbabilityError(f"active sites {active} out of range for n={n}")
            object.__setattr__(self, "active", active)
        if self.oscillation is not None:
            osc = self.oscillation
            if osc.site_a >= n or osc.site_b >= n or min(osc.site_a, osc.site_b) < 0:
                raise InvalidProbabilityError(f"oscillation sites ({osc.site_a}, {osc.site_b}) out of range for n={n}")

    @property
    def num_fragments(self) -> int:
        return self.probs.shape[0]

    @property
    def num_sites(self) -> int:
        return self.probs.shape[1]

    @classmethod
    def symmetric(
        cls,
        num_fragments: int,
        n: int,
        x_s: float,
        hot: SiteId = 0,
        rate: float = 1.0,
        active: Optional[Sequence[SiteId]] = None,
        seed: int = 0,
        oscillation: Optional[Oscillation] = None,
    ) -> "WorkloadSpec":
        row = symmetric_spec(n, x_s, hot)
        probs = np.tile(row, (num_fragments, 1))
        return cls(probs, rate=rate, active=None if active is None else tuple(active), seed=seed, oscillation=oscillation)


class EventStream:
    """Stateful generator of access events for one simulation run.

    Sampling tables (cumulative masses over the active sites, one per
    oscillation phase) are precomputed; each ``next_event`` call costs at
    most two RNG draws and one binary search.
    """

    def __init__(self, spec: WorkloadSpec):
        self.spec = spec
        self._rng = random.Random(spec.seed)
        self._emitted = [0] * spec.num_fragments
        active = spec.active if spec.active is not None else tuple(range(spec.num_sites))
        self._sites = list(active)
        phases = 1 if spec.oscillation is None else 2
        # _tables[f][phase] is the cumulative mass list over self._sites
        self._tables: list[list[list[float]]] = []
        for f in range(spec.num_fragments):
            per_phase = []
            for phase in range(phases):
                vec = spec.probs[f].copy()
                if phase == 1:
                    osc = spec.oscillation
                    vec[osc.site_a], vec[osc.site_b] = vec[osc.site_b], vec[osc.site_a]
                cum = list(accumulate(float(vec[s]) for s in self._sites))
                if cum[-1] <= 0.0:
                    raise EmptyActiveSetError(f"fragment {f} has zero probability mass on the active sites")
                per_phase.append(cum)
            self._tables.append(per_phase)

    def events_emitted(self, fragment: int) -> int:
        return self._emitted[fragment]

    def next_event(self, fragment: int) -> Optional[SiteId]:
        """One Bernoulli(rate) trial; returns the requesting site or None.

        The rate draw happens even when ``rate == 1.0`` so that the same
        seed walks the same RNG sequence regardless of thinning.
        """
        rng = self._rng
        spec = self.spec
        if rng.random() >= spec.rate:
            return None
        emitted = self._emitted[fragment]
        if spec.oscillation is None:
            cum = self._tables[fragment][0]
        else:
            cum = self._tables[fragment][(emitted // spec.oscillation.period) % 2]
        u = rng.random() * cum[-1]
        requester = self._sites[bisect_right(cum, u)]
        self._emitted[fragment] = emitted + 1
        return requester
