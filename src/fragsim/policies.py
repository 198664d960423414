"""The four fragment migration policies.

All of them answer the same per-access question (see ``decide_block``
below) and differ only in what they count and where they send the
fragment:

``optimal``
    Per-site access counters travel with the fragment. A remote requester
    whose counter strictly exceeds the owner's pulls the fragment over in
    one jump. The owner's counter keeps growing on local accesses, so a
    challenger has to out-access the current home before anything moves.

``threshold``
    One counter per fragment counts consecutive remote accesses; a local
    access clears it. Once the count exceeds ``t`` the fragment jumps to
    the last requester. ``t = 0`` degenerates to chasing every remote
    access.

``nna``
    Counts like ``optimal`` (or with a fixed remote-access threshold) but
    never jumps: when the trigger fires, the fragment moves one hop along
    the shortest path toward the highest-counter site. Counters travel
    with the fragment, so the walk re-aims itself at every hop.

``fna``
    Keeps an exponentially decayed access-score vector per fragment and
    re-evaluates it every ``window`` events. A small fuzzy rule base
    watches score churn and the recent migration history; when both look
    like thrashing it inhibits the move. Otherwise the fragment takes one
    hop toward the best-scoring site, like ``nna``.

A local access (requester already owns the fragment) is always a stay,
whatever the counters say.

Every policy has one entry point, ``decide_block(fragments,
requesters, owners, explain=False)``, which the engine calls once per
block of events (int arrays in access order):

* it applies the block's moves to ``owners``, the list of each
  fragment's current site, and does the policy's own move bookkeeping
  (``threshold`` clears its count, ``nna`` its remote-since-move count,
  ``fna`` records the destination in its history);
* it returns ``(owner_at, moves, dests, reasons, inhibitions)``: each
  event's owner before its decision, the positions of the moving events
  in ascending order and their destinations, all int arrays; a move never
  targets the current owner;
* with ``explain``, ``reasons`` holds each event's tag for the decision
  log and ``inhibitions`` its ``fna`` inhibition (``None`` when no
  evaluation ran), or is ``None`` when the policy has none; without it
  both are ``None``.

``threshold`` decides a whole block with array operations (see
:class:`ThresholdPolicy`). ``optimal``, ``nna`` and ``fna`` are written
as ``decide(f, requester, owner)`` alone, which returns the destination
site of a move or ``-1`` to stay and sets ``self.reason`` (``fna`` also
``self.inhibition``); :class:`PerAccessPolicy` gives them
``decide_block`` by asking ``decide`` once per event.

The policy classes trust their arguments; :class:`PolicySpec` checks them.

``nna`` and ``fna`` route with a ``next_hop`` table given as a list of
lists, ``next_hop[source][target]``, as built from
:attr:`~fragsim.topology.Topology.next_hop_matrix`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .topology import SiteId


def _bump(row: list, site: int, cap: Optional[int]) -> None:
    # Saturating increment. With a finite cap, ties at the ceiling are
    # never broken, which is exactly the misbehaviour narrow hardware
    # counters would show; tests pin that down.
    value = row[site] + 1
    if cap is not None and value > cap:
        value = cap
    row[site] = value


class PerAccessPolicy:
    """Base of the policies written as ``decide``: asks it once per event of a block."""

    reason = ""
    inhibition = None

    def decide_block(self, fragments, requesters, owners, explain=False):
        owner_at = []
        record = owner_at.append
        moves, dests, reasons, inhibitions = [], [], [], []
        decide = self.decide
        for f, requester in zip(fragments.tolist(), requesters.tolist()):
            owner = owners[f]
            record(owner)
            dest = decide(f, requester, owner)
            if explain:
                reasons.append(self.reason)
                inhibitions.append(self.inhibition)
            if dest >= 0:
                moves.append(len(owner_at) - 1)
                dests.append(dest)
                owners[f] = dest
        owner_at = np.fromiter(owner_at, dtype=np.intp, count=len(owner_at))
        if not explain:
            reasons = inhibitions = None
        return owner_at, np.array(moves, dtype=np.intp), np.array(dests, dtype=np.intp), reasons, inhibitions


class OptimalPolicy(PerAccessPolicy):
    """Full per-site access counters, migration on strict dominance."""

    name = "optimal"

    def __init__(self, num_fragments: int, num_sites: int, counter_cap: Optional[int] = None):
        self.counters: list[list[int]] = [[0] * num_sites for _ in range(num_fragments)]
        self.counter_cap = counter_cap

    def decide(self, f: int, requester: SiteId, owner: SiteId) -> SiteId:
        row = self.counters[f]
        _bump(row, requester, self.counter_cap)
        if requester == owner:
            self.reason = "local"
            return -1
        if row[requester] > row[owner]:
            # counters travel with the fragment, nothing to reset
            self.reason = "dominance"
            return requester
        self.reason = "no-dominance"
        return -1


def _stable_argsort(keys: np.ndarray, largest: int) -> np.ndarray:
    # In the narrowest type that holds them, small keys sort by radix sort, not merge sort.
    return np.argsort(keys.astype(np.min_scalar_type(largest)), kind="stable")


class ThresholdPolicy:
    """Consecutive-remote-access counter with reset on local access.

    Decided a block at a time with array operations. For one fragment's
    requesters ``r[0..m)``: after a move to, or a local access of, owner
    ``o = r[j]`` the count is 0, and the next move comes at ``q + t + 1``,
    where ``q`` ends the run of ``o``'s occurrences from ``j`` on whose
    consecutive members are at most ``t + 1`` apart. ``chain[j]`` holds
    that position for every ``j``, so the moves are a walk along it. The
    walk starts from the owner and count carried into the block: the first
    move is at ``t - count`` unless the owner occurs by then, and at
    ``chain`` of its first occurrence if it does.
    """

    name = "threshold"
    REASONS = np.array(["below-threshold", "local", "threshold-exceeded"], dtype=object)

    def __init__(self, num_fragments: int, t: int):
        self.t = t
        self.counts: list[int] = [0] * num_fragments  # consecutive remote accesses, carried between blocks

    def decide_block(self, fragments, requesters, owners, explain=False):
        m = requesters.size
        k = self.t + 1
        carried = np.array(owners, dtype=np.intp)
        # Positions below index the events grouped by fragment, each group in access order.
        by_fragment = _stable_argsort(fragments, len(owners) - 1)
        frag = fragments[by_fragment]
        r = requesters[by_fragment]
        bounds = np.searchsorted(frag, np.arange(len(owners) + 1))
        starts, ends = bounds[:-1], bounds[1:]

        # chain[j]: the move after a reset at j. Sorting by (fragment, site) lines up
        # each site's occurrences; a run ends at a new site or a gap above t + 1.
        width = int(r.max(initial=0)) + 1
        key = frag * width + r
        order = _stable_argsort(key, len(owners) * width - 1)
        key = key[order]
        is_end = np.ones(m, dtype=bool)
        is_end[:-1] = (key[1:] != key[:-1]) | (np.diff(order) > k)
        run_ends = np.flatnonzero(is_end)
        chain = np.empty(m, dtype=np.intp)
        chain[order] = np.repeat(order[run_ends] + k, np.diff(run_ends, prepend=-1))
        chain = chain.tolist()

        # The first move uses the carried owner and count; the rest follow the chain.
        own = np.flatnonzero(r == carried[frag])
        first_own = np.append(own, m)[np.searchsorted(own, starts)]
        moves = []
        for f, (start, end, p) in enumerate(zip(starts.tolist(), ends.tolist(), first_own.tolist())):
            j = start + k - 1 - self.counts[f]
            if p <= min(j, end - 1):
                j = chain[p]
            while j < end:
                moves.append(j)
                j = chain[j]
            if moves and moves[-1] >= start:
                owners[f] = int(r[moves[-1]])
        # The count carried on: accesses since the final owner's last occurrence, if any.
        present = np.flatnonzero(r == np.array(owners, dtype=np.intp)[frag])
        last = np.append(-1, present)[np.searchsorted(present, ends)]
        self.counts = np.where(last >= starts, ends - 1 - last, np.array(self.counts) + ends - starts).tolist()

        # Each event's owner: where its fragment's latest earlier move went, else the carried one.
        moves = np.array(moves, dtype=np.intp)
        latest = np.full(m + 1, -1, dtype=np.intp)
        latest[moves + 1] = moves
        latest = np.maximum.accumulate(latest[:-1])
        owner_at = np.empty(m, dtype=np.intp)
        owner_at[by_fragment] = np.where(latest >= starts[frag], r[latest], carried[frag])
        moves = np.sort(by_fragment[moves])  # back into access order
        reasons = None
        if explain:
            code = (requesters == owner_at).astype(np.intp)
            code[moves] = 2
            reasons = self.REASONS[code].tolist()
        return owner_at, moves, requesters[moves], reasons, None


class NnaPolicy(PerAccessPolicy):
    """Nearest-neighbour allocation: jump decisions, one-hop moves.

    ``trigger`` selects when to consider moving:

    * ``"dominance"`` (default): same strict-dominance test as
      ``optimal``.
    * ``"threshold"``: after more than ``t`` remote accesses since the
      last migration of the fragment.

    The destination is always the next hop on the shortest path from the
    owner toward the site with the highest access counter (ties to the
    lowest site id). Counters travel with the fragment.
    """

    name = "nna"

    def __init__(
        self,
        num_fragments: int,
        next_hop: list[list[SiteId]],
        trigger: str = "dominance",
        t: Optional[int] = None,
        counter_cap: Optional[int] = None,
    ):
        self.next_hop = next_hop
        self.trigger = trigger
        self.t = t
        self.counter_cap = counter_cap
        self.counters: list[list[int]] = [[0] * len(next_hop) for _ in range(num_fragments)]
        self.remote_since_move: list[int] = [0] * num_fragments

    def decide(self, f: int, requester: SiteId, owner: SiteId) -> SiteId:
        row = self.counters[f]
        _bump(row, requester, self.counter_cap)
        if requester == owner:
            self.reason = "local"
            return -1
        if self.trigger == "dominance":
            fired = row[requester] > row[owner]
        else:
            self.remote_since_move[f] += 1
            fired = self.remote_since_move[f] > self.t
        if not fired:
            self.reason = "no-trigger"
            return -1
        target = row.index(max(row))
        if target == owner:
            self.reason = "at-target"
            return -1
        self.remote_since_move[f] = 0
        self.reason = f"toward:{target}"
        return self.next_hop[owner][target]


# ---------------------------------------------------------------------------
# Fuzzy allocation


def membership_medium(x: float) -> float:
    return max(0.0, 1.0 - 2.0 * abs(x - 0.5))


def membership_high(x: float) -> float:
    return max(0.0, 2.0 * x - 1.0)


def alternation_score(history: Sequence[SiteId]) -> float:
    """How ping-pong-like a migration destination history looks, in [0, 1].

    Counts positions whose destination repeats the one two moves back
    while differing from the immediately preceding one (the A-B-A-B
    signature), over the ``len(history) - 2`` comparable positions.
    Histories shorter than 3 score 0.
    """
    m = len(history)
    if m < 3:
        return 0.0
    hits = 0
    for i in range(2, m):
        if history[i] == history[i - 2] and history[i] != history[i - 1]:
            hits += 1
    return hits / (m - 2)


def oscillation_inhibition(churn: float, alternation: float) -> float:
    """Mamdani-style max-min strength of the "do not move" signal.

    Three rules fire: churn high AND alternation high, churn high AND
    alternation medium, churn medium AND alternation high. Anything less
    coincident than that is considered ordinary drift and scores low.
    """
    churn_hi = membership_high(churn)
    churn_med = membership_medium(churn)
    alt_hi = membership_high(alternation)
    alt_med = membership_medium(alternation)
    return max(
        min(churn_hi, alt_hi),
        min(churn_hi, alt_med),
        min(churn_med, alt_hi),
    )


@dataclass(frozen=True)
class FnaParams:
    """Tunables for the fuzzy policy; defaults match the reference setup."""

    window: int = 20
    decay: float = 0.95
    history: int = 6
    inhibition_cutoff: float = 0.5
    min_gap: float = 0.05
    eps: float = 1e-9

    def __post_init__(self):
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if not (0.0 < self.decay < 1.0):
            raise ValueError(f"decay must lie in (0, 1), got {self.decay}")
        if self.history < 1:
            raise ValueError(f"history must be >= 1, got {self.history}")
        if not (0.0 <= self.inhibition_cutoff <= 1.0):
            raise ValueError(f"inhibition_cutoff must lie in [0, 1], got {self.inhibition_cutoff}")
        if not self.min_gap >= 0:
            raise ValueError(f"min_gap must be non-negative, got {self.min_gap}")
        if not self.eps > 0:
            raise ValueError(f"eps must be positive, got {self.eps}")


class FnaPolicy(PerAccessPolicy):
    """Fuzzy nearest-neighbour allocation.

    Per fragment it maintains an exponentially decayed score vector ``v``
    (decay then +1 at the requester on every access) and re-evaluates the
    placement every ``window`` events of that fragment:

    * churn  is ``|v - v_prev|_1 / (|v|_1 + eps)`` clipped to [0, 1],
      where ``v_prev`` is the snapshot from the previous evaluation,
    * alternation comes from :func:`alternation_score` over the last
      ``history`` migration destinations,
    * :func:`oscillation_inhibition` fuses the two.

    The fragment moves one hop toward ``argmax v`` only if the requester
    is remote, the target is not already the owner, the normalised score
    gap ``(v[target] - v[owner]) / (|v|_1 + eps)`` reaches ``min_gap``,
    and the inhibition stays at or below ``inhibition_cutoff``.

    Scores are plain float lists: the per-access decay and bump are
    elementwise, so they round exactly as numpy would. The two norms at
    evaluation time go through ``np.sum``, whose pairwise order differs
    from a sequential ``sum`` in the last bit.
    """

    name = "fna"

    def __init__(self, num_fragments: int, next_hop: list[list[SiteId]], params: FnaParams = FnaParams()):
        self.params = params
        self.next_hop = next_hop
        num_sites = len(next_hop)
        self.vectors: list[list[float]] = [[0.0] * num_sites for _ in range(num_fragments)]
        self._prev: list[list[float]] = [[0.0] * num_sites for _ in range(num_fragments)]
        self._since_eval = [0] * num_fragments
        self._history: list[deque] = [deque(maxlen=params.history) for _ in range(num_fragments)]

    def decide(self, f: int, requester: SiteId, owner: SiteId) -> SiteId:
        p = self.params
        decay = p.decay
        self.vectors[f] = v = [x * decay for x in self.vectors[f]]
        v[requester] += 1.0
        self._since_eval[f] += 1
        if self._since_eval[f] < p.window:
            self.reason = "local" if requester == owner else "no-eval"
            self.inhibition = None
            return -1
        dest = self._evaluate(f, owner)
        self._prev[f] = v[:]
        self._since_eval[f] = 0
        if requester == owner:
            self.reason = "local"
            return -1
        if dest >= 0:
            self._history[f].append(dest)
        return dest

    def _evaluate(self, f: int, owner: SiteId) -> SiteId:
        """Set ``reason`` and ``inhibition``; return the hop to take or -1."""
        p = self.params
        v = self.vectors[f]
        row = np.array(v)
        total = float(row.sum()) + p.eps
        churn = min(1.0, float(np.abs(row - self._prev[f]).sum()) / total)
        self.inhibition = oscillation_inhibition(churn, alternation_score(self._history[f]))
        target = v.index(max(v))
        if target == owner:
            self.reason = "at-target"
            return -1
        if (v[target] - v[owner]) / total < p.min_gap:
            self.reason = "gap-below-min"
            return -1
        if self.inhibition > p.inhibition_cutoff:
            self.reason = "inhibited"
            return -1
        self.reason = f"toward:{target}"
        return self.next_hop[owner][target]


# ---------------------------------------------------------------------------
# Construction from a declarative description


@dataclass(frozen=True)
class PolicySpec:
    """Everything needed to instantiate a policy for a given run.

    Construction checks the parameters against the policy's name and
    raises ``ValueError`` on any that the policy does not take. The policy
    classes, the config reader and the ``compare`` tokens rely on it.
    """

    name: str
    t: Optional[int] = None
    trigger: str = "dominance"
    counter_cap: Optional[int] = None
    fna: FnaParams = field(default_factory=FnaParams)

    def __post_init__(self):
        name, t, cap = self.name, self.t, self.counter_cap
        if name not in ("optimal", "threshold", "nna", "fna"):
            raise ValueError(f"unknown policy {name!r}, expected optimal, threshold, nna or fna")
        if self.trigger not in ("dominance", "threshold"):
            raise ValueError(f"trigger must be 'dominance' or 'threshold', got {self.trigger!r}")
        if self.trigger != "dominance" and name != "nna":
            raise ValueError(f"trigger: only nna takes a trigger, not {name}")
        if name == "threshold" or self.trigger == "threshold":
            if type(t) is not int or t < 0:
                raise ValueError(f"t: {name} needs an integer t >= 0, got {t!r}")
        elif t is not None:
            raise ValueError(f"t: only threshold and threshold-triggered nna take t, got t={t!r} for {name}")
        if cap is not None and (name not in ("optimal", "nna") or type(cap) is not int or cap < 1):
            raise ValueError(f"counter_cap: only optimal and nna take one, an integer >= 1; got {cap!r} for {name}")
        if name != "fna" and self.fna != FnaParams():
            raise ValueError(f"fna: only fna takes fna parameters, not {name}")


def build_policy(spec: PolicySpec, num_fragments: int, num_sites: int, next_hop: list[list[SiteId]]):
    """Instantiate the policy ``spec`` names; ``next_hop`` is the routing table as lists."""
    if spec.name == "optimal":
        return OptimalPolicy(num_fragments, num_sites, counter_cap=spec.counter_cap)
    if spec.name == "threshold":
        return ThresholdPolicy(num_fragments, spec.t)
    if spec.name == "nna":
        return NnaPolicy(num_fragments, next_hop, trigger=spec.trigger, t=spec.t, counter_cap=spec.counter_cap)
    return FnaPolicy(num_fragments, next_hop, params=spec.fna)
