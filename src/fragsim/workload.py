"""Reproducible access-event streams.

A stream draws from a distribution, a :class:`WorkloadSpec` of each
fragment's probability vector over the sites, an optional ``active``
site set and an optional ``oscillation``, at a ``rate`` and from a
``seed`` that :class:`EventStream` takes beside it. Each simulation step
offers every fragment one Bernoulli(``rate``) chance to emit an access;
the requester is then drawn from the fragment's probability vector by
inverse CDF. Restricting to an ``active`` site set renormalises the
remaining mass, preserving the ratios between active sites. Streams are
driven by ``random.Random`` (Mersenne Twister), whose output for a fixed
seed is stable across platforms and Python releases, so a (spec, rate,
seed) triple always reproduces the same events.

The stream is defined trial by trial, in step-major, fragment-minor
order: a trial takes one ``random()`` draw and emits when it is below
``rate`` (the draw is taken even at ``rate == 1``, so thinning never
shifts the sequence); an emitting trial takes a second draw ``u``, and
the requester is the first active site whose cumulative mass exceeds
``u`` times the total (``bisect_right``). An ``oscillation`` picks the
swapped table when the fragment's emitted count so far, divided by the
period, is odd.

:meth:`EventStream.blocks` produces exactly that sequence a block of
trials at a time, without a Python call per trial:

* ``getrandbits(64 * m)`` returns the next ``2m`` 32-bit Mersenne
  Twister outputs packed least significant word first, the order
  ``random()`` would consume them in. Read as little-endian 64-bit words,
  word ``x`` holds one ``random()`` call's pair, and
  ``((x & 0xFFFFFFFF) >> 5) * 2**26 + (x >> 38)`` scaled by ``2**-53`` is
  the double ``random()`` builds from it, bit for bit.
* A block of ``k`` trials needs at most ``2k`` draws. Position ``p`` of
  the draws is a trial start when the run of draws below ``rate``
  immediately before it, back to the last draw at or above ``rate``, has
  even length: a miss is always followed by a start, and after it starts
  and requester draws alternate. ``np.maximum.accumulate`` over the miss
  positions finds that run for every position at once.
* When no draw of a block misses, which is every block at ``rate == 1``,
  that search is skipped: trial ``i`` of the block starts at draw ``2i``
  and emits, its requester draw is ``2i + 1``, and the draws from ``2k``
  on carry over.
* Draws beyond the block's last trial carry over to the next block, even
  when they outnumber all that the (shorter) final block needs.
* The block's events are grouped by fragment with one stable sort. An
  event's oscillation phase, from the fragment's emitted count plus the
  event's rank in its slice of the grouping, picks the fragment's row of
  the spec's ``table`` in that phase. One halving search over all the
  block's events finds ``bisect_right(row, u * row[-1])``, the same float
  product and comparisons as a per-trial draw, at a cost per event that
  does not depend on the fragment count.

Each block comes as a :class:`Block`, which keeps an index of its events
that depends on no policy: the events grouped by fragment, which the
stream hands in, and, in :class:`BlockIndex`, each event's distance to
the next access by the same site of the same fragment and each
(fragment, site)'s first and last position. The index is computed on
first use, so a run whose policies never read it never builds it, and
every policy handed the block shares both.

Only ``random.Random`` draws; ``numpy.random`` is never imported.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, Sequence

import numpy as np

from .topology import SiteId, is_int

_ROW_SUM_TOL = 1e-9

# Trials per block. A constant in trials, not steps, keeps a block's arrays
# (two draws a trial at most) at about 100 KB however many fragments a run has.
BLOCK_TRIALS = 4096

# BlockIndex.gaps of an event whose site does not occur again in its fragment's group
NO_NEXT = np.iinfo(np.intp).max


def check_two_level(n: int, x_s: float) -> None:
    """The one check of a two-level pattern's site count ``n`` and hot mass ``x_s``."""
    if not is_int(n):
        raise ValueError(f"n must be an integer, got {n!r}")
    if n < 2:
        raise ValueError(f"need at least two sites, got n={n}")
    try:
        float(n)  # the chain's x_d divides by n - 1 as a float
    except OverflowError:
        raise ValueError("n is too large to convert to a float") from None
    if not (0.0 <= x_s <= 1.0):
        raise ValueError(f"x_s must lie in [0, 1], got {x_s}")


def check_rate(rate: float) -> None:
    """The one check of a stream's ``rate``, each trial's chance to emit an access; NaN fails it."""
    if not (0.0 < rate <= 1.0):
        raise ValueError(f"rate must lie in (0, 1], got {rate}")


def check_seed(seed: int) -> None:
    """The one check of a stream's ``seed``: ``random.Random`` seeds with ``abs(seed)``, so -s would replay s."""
    if not (is_int(seed) and seed >= 0):
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")


def symmetric_spec(n: int, x_s: float, hot: SiteId = 0) -> np.ndarray:
    """Access vector with mass ``x_s`` at ``hot`` and the rest spread evenly.

    This is the two-level pattern used throughout the steady-state
    analysis: one designated site at ``x_s``, the other ``n - 1`` sites at
    ``(1 - x_s) / (n - 1)`` each.
    """
    check_two_level(n, x_s)
    if not (is_int(hot) and 0 <= hot < n):
        raise ValueError(f"hot site {hot!r} out of range for n={n}")
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
        for key in ("site_a", "site_b", "period"):
            if not is_int(getattr(self, key)):
                raise ValueError(f"oscillation {key} must be an integer, got {getattr(self, key)!r}")
        if self.site_a == self.site_b:
            raise ValueError("oscillation sites must differ")
        if self.period < 1:
            raise ValueError(f"oscillation period must be >= 1, got {self.period}")
        if self.period >= 2**63:  # numpy divides int64 event counts by it
            raise ValueError(f"oscillation period must be below 2**63, got {self.period}")


@dataclass(frozen=True, eq=False)
class WorkloadSpec:
    """The distribution an access stream draws from; the rate and seed are the stream's.

    ``probs`` has one row per fragment summing to 1 over the sites.
    ``active`` (None means all sites) restricts requesters to a subset,
    renormalising the row. ``oscillation`` optionally swaps two sites'
    masses periodically. Every row needs mass on the active sites in each
    oscillation phase.

    Validation leaves two attributes that are not fields: ``sites``, the
    active sites in order, and ``table``, of shape (oscillation phases,
    fragments, len(sites)), whose row ``[p, f]`` is fragment ``f``'s cumulative
    mass over ``sites`` in phase ``p``, the sampling table of :class:`EventStream`.
    """

    probs: np.ndarray
    active: Optional[tuple[SiteId, ...]] = None
    oscillation: Optional[Oscillation] = None

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 2:
            raise ValueError(f"probs must be 2-D (fragments x sites), got shape {probs.shape}")
        if np.any(probs < 0):
            raise ValueError("probs entries must be non-negative")
        sums = probs.sum(axis=1)
        bad = np.flatnonzero(~(np.abs(sums - 1.0) <= _ROW_SUM_TOL))  # a NaN row fails too
        if bad.size:
            raise ValueError(f"probs row {bad[0]} sums to {sums[bad[0]]!r}, expected 1")
        object.__setattr__(self, "probs", probs)
        n = probs.shape[1]
        if self.active is not None:
            if not all(is_int(s) for s in self.active):
                raise ValueError(f"active sites must be integers, got {self.active!r}")
            active = tuple(sorted(set(int(s) for s in self.active)))
            if not active:
                raise ValueError("active site set is empty")
            if active[0] < 0 or active[-1] >= n:
                raise ValueError(f"active sites {active} out of range for n={n}")
            object.__setattr__(self, "active", active)
        phases = [probs]
        if self.oscillation is not None:
            osc = self.oscillation
            if osc.site_a >= n or osc.site_b >= n or min(osc.site_a, osc.site_b) < 0:
                raise ValueError(f"oscillation sites ({osc.site_a}, {osc.site_b}) out of range for n={n}")
            swap = list(range(n))
            swap[osc.site_a], swap[osc.site_b] = osc.site_b, osc.site_a
            phases.append(probs[:, swap])
        sites = np.array(self.active if self.active is not None else range(n))
        # cumsum adds left to right, so each row is the running sum a per-site += gives
        table = np.cumsum(np.stack(phases)[:, :, sites], axis=2)
        empty = np.flatnonzero(table[:, :, -1] <= 0.0)
        if empty.size:
            raise ValueError(f"fragment {empty[0] % len(probs)} has zero probability mass on the active sites")
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "table", table)

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
        active: Optional[Sequence[SiteId]] = None,
        oscillation: Optional[Oscillation] = None,
    ) -> "WorkloadSpec":
        probs = np.tile(symmetric_spec(n, x_s, hot), (num_fragments, 1))
        return cls(probs, active=None if active is None else tuple(active), oscillation=oscillation)


class EventStream:
    """Access events for one run of ``spec`` at ``rate`` from ``seed``, drawn a block of trials at a time.

    The sampling table is the spec's ``table``, cumulative masses over the
    active sites by oscillation phase and fragment. :meth:`blocks` turns one
    ``getrandbits`` call per block into the doubles ``random()`` would
    have returned, lays them out into trials with array operations, and
    picks every requester with one halving search over that table; see the
    module docstring for why that replays the per-trial draws exactly.
    """

    def __init__(self, spec: WorkloadSpec, rate: float, seed: int):
        check_rate(rate)
        check_seed(seed)
        self.spec = spec
        self.rate = rate
        self._rng = random.Random(seed)
        self._emitted = np.zeros(spec.num_fragments, dtype=np.int64)

    def _draws(self, count: int) -> np.ndarray:
        """The next ``count`` doubles ``random()`` would return, in order."""
        words = np.frombuffer(self._rng.getrandbits(64 * count).to_bytes(8 * count, "little"), "<u8")
        return (((words & 0xFFFFFFFF) >> 5) << 26 | words >> 38).astype(float) * 2.0**-53

    def blocks(self, num_steps: int) -> Iterator["Block"]:
        """Yield a :class:`Block` of every event of ``num_steps`` steps.

        Each block covers the next ``BLOCK_TRIALS`` trials (the last one
        fewer) and holds one int array entry per emitted access, in trial
        order: step-major, fragment-minor.
        """
        rate = self.rate
        num_fragments = self.spec.num_fragments
        total = num_steps * num_fragments
        carry = np.empty(0)
        for first in range(0, total, BLOCK_TRIALS):
            trials = min(BLOCK_TRIALS, total - first)
            need = 2 * trials - carry.size  # no trial takes more than two draws
            draws = np.concatenate((carry, self._draws(need))) if need > 0 else carry
            miss = draws >= rate
            if miss.any():
                # a trial starts where the run of hits right before it has even length
                position = np.arange(draws.size)
                last_miss = np.maximum.accumulate(np.where(miss, position, -1))
                since_miss = position - np.concatenate(([-1], last_miss[:-1])) - 1
                starts = np.flatnonzero(since_miss % 2 == 0)[:trials]
                hit = draws[starts] < rate
                carry = draws[starts[-1] + 1 + hit[-1] :]
                emitted = first + np.flatnonzero(hit)
                u = draws[starts[hit] + 1]
            else:  # every trial emits, so trial i takes draws 2i and 2i + 1
                carry = draws[2 * trials :]
                emitted = np.arange(first, first + trials)
                u = draws[1 : 2 * trials : 2]
            steps, fragments = np.divmod(emitted, num_fragments)
            by_fragment = _group(fragments, num_fragments)
            yield Block(steps, fragments, self._requesters(fragments, by_fragment, u), num_fragments, by_fragment)

    def _requesters(self, fragments: np.ndarray, by_fragment: tuple[np.ndarray, np.ndarray], draws: np.ndarray) -> np.ndarray:
        """Requester of each event, from its second draw, by inverse CDF.

        An event's row of the flattened ``table`` is its fragment, plus
        ``num_fragments`` in the swapped phase. A probe past a row's end
        reads its last entry, which exceeds every target: it acts as +inf.
        """
        order, bounds = by_fragment
        rows = fragments
        osc = self.spec.oscillation
        if osc is not None:
            position = np.empty(order.size, dtype=np.int64)  # each event's position in the grouping
            position[order] = np.arange(order.size)
            swapped = (self._emitted[fragments] + position - bounds[fragments]) // osc.period % 2
            rows = fragments + self.spec.num_fragments * swapped
        self._emitted += np.diff(bounds)
        width = self.spec.table.shape[2]
        cum = self.spec.table.reshape(-1)
        at = first = rows * width
        last = first + (width - 1)
        target = draws * cum[last]
        step = 1 << (width - 1).bit_length()  # the smallest power of two >= width
        while step > 1:
            step //= 2
            at = at + step * (cum[np.minimum(at + (step - 1), last)] <= target)
        return self.spec.sites[at - first]


def _group(fragments: np.ndarray, num_fragments: int) -> tuple[np.ndarray, np.ndarray]:
    """``(order, bounds)``: fragment ``f``'s events are ``order[bounds[f]:bounds[f + 1]]``, in access order."""
    order = _stable_argsort(fragments, num_fragments - 1)
    bounds = np.searchsorted(fragments[order], np.arange(num_fragments + 1))
    return order, bounds


def _stable_argsort(keys: np.ndarray, largest: int) -> np.ndarray:
    # In the narrowest type that holds them, small keys sort by radix sort, not merge sort.
    return np.argsort(keys.astype(np.min_scalar_type(largest)), kind="stable")


class Block:
    """The events of one block of trials, with an index that every policy handed the block shares.

    ``steps``, ``fragments`` and ``requesters`` hold one int entry per
    emitted access, in trial order, and ``num_fragments`` is the run's
    fragment count; nothing writes into them. :attr:`by_fragment` and
    :attr:`index` depend on no policy: each is computed on first use and
    kept with the block, unless the stream, which groups the events by
    fragment to draw their requesters, hands its grouping in.
    """

    def __init__(
        self,
        steps: np.ndarray,
        fragments: np.ndarray,
        requesters: np.ndarray,
        num_fragments: int,
        by_fragment: Optional[tuple[np.ndarray, np.ndarray]] = None,
    ):
        self.steps = steps
        self.fragments = fragments
        self.requesters = requesters
        self.num_fragments = num_fragments
        if by_fragment is not None:
            self.by_fragment = by_fragment

    @cached_property
    def by_fragment(self) -> tuple[np.ndarray, np.ndarray]:
        """``(order, bounds)``: fragment ``f``'s events are ``order[bounds[f]:bounds[f + 1]]``, in access order."""
        return _group(self.fragments, self.num_fragments)

    @cached_property
    def index(self) -> "BlockIndex":
        """The block's :class:`BlockIndex`."""
        return BlockIndex(self)


class BlockIndex:
    """Where each (fragment, site) occurs in a block, in grouped positions.

    Grouped position ``p`` is the block's event ``order[p]`` of
    :attr:`Block.by_fragment`, so each fragment's events are contiguous:

    * ``requesters[p]`` is that event's requester;
    * ``by_site`` lists the grouped positions sorted by (fragment, site),
      each pair's occurrences in access order, and ``gaps[i]`` is the
      distance from ``by_site[i]`` to the pair's next occurrence, or
      ``NO_NEXT``, larger than any gap, at its last;
    * ``first[f * width + s]`` and ``last[f * width + s]`` are the first
      and last grouped positions of site ``s`` in fragment ``f``, or the
      block's size and -1 where the site does not occur; ``width`` is one
      more than the largest requester, so larger sites never occur.
    """

    def __init__(self, block: Block):
        order, bounds = block.by_fragment
        m = order.size
        self.requesters = block.requesters[order]
        self.width = width = int(self.requesters.max(initial=0)) + 1
        key = np.repeat(np.arange(block.num_fragments) * width, np.diff(bounds)) + self.requesters
        self.by_site = _stable_argsort(key, block.num_fragments * width - 1)
        key = key[self.by_site]
        is_last = np.ones(m, dtype=bool)
        is_last[:-1] = key[1:] != key[:-1]
        is_first = np.ones(m, dtype=bool)
        is_first[1:] = is_last[:-1]
        self.gaps = np.where(is_last, NO_NEXT, np.diff(self.by_site, append=0))
        self.first = np.full(block.num_fragments * width, m, dtype=np.intp)
        self.first[key[is_first]] = self.by_site[is_first]
        self.last = np.full(block.num_fragments * width, -1, dtype=np.intp)
        self.last[key[is_last]] = self.by_site[is_last]
