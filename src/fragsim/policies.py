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

Every policy has one entry point, ``decide_block(block, owners)``, which
the engine calls once per :class:`~fragsim.workload.Block` of events (its
``fragments`` and ``requesters`` are int arrays in access order). It
works in the block's grouped positions, those of
:attr:`~fragsim.workload.Block.by_fragment`, where each fragment's events
are contiguous:

* it reads ``owners``, the list of each fragment's site at the start of
  the block, and never writes it: the engine alone keeps the owners. It
  does the policy's own move bookkeeping (``threshold`` clears its
  count, ``nna`` its remote-since-move count, ``fna`` records the
  destination in its history);
* it returns ``(moves, dests, codes, inhibitions)``: the grouped
  positions of the moving events in ascending order and their
  destinations; one code per grouped event, an index into the policy's
  ``reasons`` tuple; and, for ``fna`` only, each grouped event's
  inhibition, NaN where no evaluation ran (``None`` for the others). A
  move never targets the current owner and never falls on a local
  access.

Each policy decides a whole block with array operations, ``threshold``
from the block's index and the others from its grouping by fragment,
which every policy handed the block shares. The engine finds each
event's owner, and each fragment's owner after the block, from the
moves, and tags every local access ``local`` itself
(:mod:`~fragsim.engine`), so no ``reasons`` tuple holds it and the code
a policy gives a local access is never read.

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

from .topology import SiteId, is_int


class ThresholdPolicy:
    """Consecutive-remote-access counter with reset on local access.

    Decided a block at a time from the block's shared
    :class:`~fragsim.workload.BlockIndex`. For one fragment's requesters
    ``r[0..m)``: after a move to, or a local access of, owner ``o = r[j]``
    the count is 0, and the next move comes at ``q + t + 1``, where ``q``
    ends the run of ``o``'s occurrences from ``j`` on whose consecutive
    members are at most ``t + 1`` apart. ``chain[j]`` holds that position
    for every ``j``, so the moves are a walk along it. Per ``t``:

    * the runs end where the index's gap to the site's next occurrence
      exceeds ``t + 1``, one comparison for the block;
    * ``chain`` is each run's end plus ``t + 1``, spread over the run's
      members with ``np.repeat``;
    * the walk starts from the owner and count carried into the block: the
      first move is at ``t - count`` unless the owner occurs by then (its
      first position comes from the index), and at ``chain`` of that
      occurrence if it does; it reads ``chain`` through a ``memoryview``;
    * the count carried on is the number of accesses since the final
      owner's last position in the block, from the index, or the old count
      plus the fragment's accesses when the owner does not occur;
    * each move's destination is its requester.
    """

    name = "threshold"
    reasons = ("below-threshold", "threshold-exceeded")

    def __init__(self, num_fragments: int, t: int):
        self.t = t
        self.counts: list[int] = [0] * num_fragments  # consecutive remote accesses, carried between blocks

    def decide_block(self, block, owners):
        m = block.requesters.size
        t = self.t
        k = min(t + 1, m)  # no gap within a block reaches m, so a larger t + 1 acts as m
        bounds = block.by_fragment[1]
        index = block.index
        # chain[j], for every grouped position j, from the runs that end at this t
        run_ends = np.flatnonzero(index.gaps > k)
        chain = np.empty(m, dtype=np.intp)
        chain[index.by_site] = np.repeat(index.by_site[run_ends] + k, np.diff(run_ends, prepend=-1))
        chain = memoryview(chain)
        r, first, last, width = memoryview(index.requesters), memoryview(index.first), memoryview(index.last), index.width

        counts = self.counts
        moves = []
        spans = bounds.tolist()
        for f, (start, end) in enumerate(zip(spans, spans[1:])):
            before = len(moves)
            owner = owners[f]
            j = start + t - counts[f]  # the first move, unless the owner occurs by then
            p = first[f * width + owner] if owner < width else m
            if p <= min(j, end - 1):
                j = chain[p]
            while j < end:
                moves.append(j)
                j = chain[j]
            if len(moves) > before:
                owner = r[moves[-1]]
            q = last[f * width + owner] if owner < width else -1
            counts[f] = end - 1 - q if q >= start else counts[f] + end - start

        moves = np.fromiter(moves, dtype=np.intp, count=len(moves))
        codes = np.zeros(m, dtype=np.intp)
        codes[moves] = 1
        return moves, index.requesters[moves], codes, None


class NnaPolicy:
    """Nearest-neighbour allocation: jump decisions, one-hop moves.

    ``trigger`` selects when to consider moving:

    * ``"dominance"`` (default): the requester's counter strictly exceeds
      the owner's.
    * ``"threshold"``: after more than ``t`` remote accesses since the
      last migration of the fragment.

    The destination is always the next hop on the shortest path from the
    owner toward the site with the highest access counter (ties to the
    lowest site id). Counters travel with the fragment.

    Decided a block at a time in the grouped positions of
    :attr:`~fragsim.workload.Block.by_fragment`. Each event's counters
    after its bump are a segmented ``cumsum``, capped by ``np.minimum``:
    counts only grow, so this equals saturating each bump, and, as with
    narrow hardware counters, ties at the cap are never broken. Their
    ``argmax`` is the target. For every owner ``o`` at once, a reverse
    ``minimum.accumulate`` over the events that would move a fragment ``o``
    owns gives the next one from any position, so a fragment's walk costs
    one lookup per move. Under the threshold trigger the walk first skips,
    by ``searchsorted`` in ``o``'s cumulative remote counts, to the access
    that takes the count past ``t``; the remote accesses from there to the
    move are ``at-target``.
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
        self.counters = np.zeros((num_fragments, len(next_hop)), dtype=np.int64)
        self.remote_since_move: list[int] = [0] * num_fragments  # counted under the threshold trigger
        self.reasons = tuple(f"toward:{s}" for s in range(len(next_hop))) + ("no-trigger", "at-target")

    def decide_block(self, block, owners):
        order, bounds = block.by_fragment
        m, n = order.size, self.counters.shape[1]
        counts = np.diff(bounds)
        requesters = block.requesters[order]
        sums = np.zeros((m + 1, n), dtype=np.int64)
        sums[np.arange(1, m + 1), requesters] = 1
        np.cumsum(sums, axis=0, out=sums)
        rows = sums[1:] - np.repeat(sums[bounds[:-1]] - self.counters, counts, axis=0)  # after each bump
        if self.counter_cap is not None:
            np.minimum(rows, self.counter_cap, out=rows)
        self.counters[counts > 0] = rows[bounds[1:][counts > 0] - 1]
        targets = rows.argmax(axis=1)

        remote = None
        if self.trigger == "dominance":
            marks = rows < rows[np.arange(m), requesters][:, None]
        else:
            sites = np.arange(n)
            marks = (requesters[:, None] != sites) & (targets[:, None] != sites)
            remote = np.zeros((n, m + 1), dtype=np.int64)  # remote[o, j]: events before j remote to o
            np.cumsum(requesters != sites[:, None], axis=1, out=remote[:, 1:])
        # after[j, o]: the first event at or after j that moves a fragment o owns, m if none
        after = np.where(marks, np.arange(m, dtype=np.int32)[:, None], np.int32(m))
        after = memoryview(np.minimum.accumulate(after[::-1], axis=0)[::-1])

        next_hop, t, since, target = self.next_hop, self.t, self.remote_since_move, memoryview(targets)
        moves, dests = [], []
        fired = np.zeros(m, dtype=bool)  # the events where the threshold trigger fires
        spans = bounds.tolist()
        for f, (start, end) in enumerate(zip(spans, spans[1:])):
            owner, j, count = owners[f], start, since[f]
            while True:
                q = j
                if remote is not None:
                    need = max(1, min(t + 1 - count, m + 1))
                    q = int(np.searchsorted(remote[owner], remote[owner, j] + need)) - 1
                k = min(after[q, owner], end) if q < end else end
                if remote is not None:
                    fired[q:k] = True  # the remote accesses there are at-target
                if k == end:
                    break
                moves.append(k)
                owner = next_hop[owner][target[k]]
                dests.append(owner)
                j, count = k + 1, 0
            if remote is not None:
                since[f] = count + int(remote[owner, end] - remote[owner, j])

        moves = np.array(moves, dtype=np.intp)
        codes = np.full(m, n)
        codes[fired] = n + 1
        codes[moves] = targets[moves]
        return moves, np.array(dests, dtype=np.intp), codes, None


class OptimalPolicy(NnaPolicy):
    """Full per-site access counters, migration on strict dominance.

    ``nna``'s dominance rule on the jump table ``next_hop[o][s] = s``. The
    owner always holds a row maximum, so a requester that strictly
    dominates it is the row's unique maximum, the target, and the fragment
    jumps straight there; ``at-target`` never occurs, so its ``reasons``
    have no entry for it.
    """

    name = "optimal"

    def __init__(self, num_fragments: int, num_sites: int, counter_cap: Optional[int] = None):
        super().__init__(num_fragments, [list(range(num_sites))] * num_sites, counter_cap=counter_cap)
        self.reasons = ("dominance",) * num_sites + ("no-dominance",)


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


# Added to a score vector's norm, so that an all-zero vector has churn and gap 0, not NaN
FNA_EPS = 1e-9


@dataclass(frozen=True)
class FnaParams:
    """Tunables for the fuzzy policy; defaults match the reference setup."""

    window: int = 20
    decay: float = 0.95
    history: int = 6
    inhibition_cutoff: float = 0.5
    min_gap: float = 0.05

    def __post_init__(self):
        # numpy takes int64 event counts modulo window, and history is a deque's C maxlen
        for key in ("window", "history"):
            value = getattr(self, key)
            if not is_int(value):
                raise ValueError(f"{key} must be an integer, got {value!r}")
            if not 1 <= value < 2**63:
                raise ValueError(f"{key} must lie in [1, 2**63), got {value}")
        if not (0.0 < self.decay < 1.0):
            raise ValueError(f"decay must lie in (0, 1), got {self.decay}")
        if not (0.0 <= self.inhibition_cutoff <= 1.0):
            raise ValueError(f"inhibition_cutoff must lie in [0, 1], got {self.inhibition_cutoff}")
        if not self.min_gap >= 0:
            raise ValueError(f"min_gap must be non-negative, got {self.min_gap}")


class FnaPolicy:
    """Fuzzy nearest-neighbour allocation.

    Per fragment it maintains an exponentially decayed score vector ``v``
    (decay then +1 at the requester on every access) and re-evaluates the
    placement every ``window`` events of that fragment:

    * churn  is ``|v - v_prev|_1 / (|v|_1 + FNA_EPS)`` clipped to [0, 1],
      where ``v_prev`` is the snapshot from the previous evaluation,
    * alternation comes from :func:`alternation_score` over the last
      ``history`` migration destinations,
    * :func:`oscillation_inhibition` fuses the two.

    The fragment moves one hop toward ``argmax v`` only if the requester
    is remote, the target is not already the owner, the normalised score
    gap ``(v[target] - v[owner]) / (|v|_1 + FNA_EPS)`` reaches ``min_gap``,
    and the inhibition stays at or below ``inhibition_cutoff``.

    Decided a block at a time. The scores do not depend on the owner, so
    every fragment's are evolved together as one (fragments x sites)
    array, one event rank at a time, a rank being an event's position
    among its fragment's events in the block (from
    :attr:`~fragsim.workload.Block.by_fragment`):

    * each rank multiplies the array by a factor, ``decay`` where the
      fragment has an event at that rank and 1.0 where it has none, then
      adds a one-hot bump, 0.0 where it has none. ``x * 1.0`` and
      ``x + 0.0`` leave a non-negative float as it is, so every score is
      the one a per-access update gives, bit for bit;
    * the array after each rank is kept, and the rows at evaluation events
      (every ``window``-th event of a fragment, counted across blocks)
      give every evaluation's norm, churn and argmax target at once. A
      row-wise ``sum(axis=1)`` adds each row pairwise, as ``np.sum`` of
      the row does, so the norms keep their bits too;
    * the gap test, the alternation, the inhibition and the hop depend on
      the owner and the history, and run in Python once per evaluation.
    """

    name = "fna"

    def __init__(self, num_fragments: int, next_hop: list[list[SiteId]], params: FnaParams = FnaParams()):
        self.params = params
        self.next_hop = next_hop
        num_sites = len(next_hop)
        self.vectors = np.zeros((num_fragments, num_sites))
        self._prev = np.zeros((num_fragments, num_sites))  # each fragment's scores at its latest evaluation
        self._since_eval = np.zeros(num_fragments, dtype=np.intp)
        self._history: list[deque] = [deque(maxlen=params.history) for _ in range(num_fragments)]
        toward = tuple(f"toward:{s}" for s in range(num_sites))
        self.reasons = toward + ("no-eval", "at-target", "gap-below-min", "inhibited")  # toward:s is code s

    def decide_block(self, block, owners):
        p = self.params
        order, bounds = block.by_fragment
        num_fragments, n = self.vectors.shape
        counts = np.diff(bounds)
        fragment = np.repeat(np.arange(num_fragments), counts)  # of each grouped position
        rank = np.arange(order.size) - np.repeat(bounds[:-1], counts)
        requesters = block.requesters[order]

        # scores[k + 1]: every fragment's scores after its event of rank k; it holds the bumps until then.
        # Flat rows and full-width factors make each step two plain 1-D ufunc calls.
        depth = int(counts.max(initial=0))
        scores = np.zeros((depth + 1, num_fragments, n))
        scores[0] = self.vectors
        scores[rank + 1, fragment, requesters] = 1.0
        factors = np.ones((depth, num_fragments, n))
        factors[rank, fragment] = p.decay
        width = num_fragments * n
        flat = scores.reshape(depth + 1, width)
        decayed = np.empty(width)
        multiply, add = np.multiply, np.add
        for before, after, factor in zip(flat, flat[1:], factors.reshape(depth, width)):
            multiply(before, factor, decayed)
            add(after, decayed, after)
        self.vectors = scores[-1].copy()

        # every evaluation of the block, by fragment and then rank
        evals = np.flatnonzero((np.repeat(self._since_eval, counts) + rank + 1) % p.window == 0)
        self._since_eval = (self._since_eval + counts) % p.window
        at = fragment[evals]
        rows = scores[rank[evals] + 1, at]
        prev = rows[np.arange(at.size) - 1]
        first = np.ones(at.size, dtype=bool)
        first[1:] = at[1:] != at[:-1]
        prev[first] = self._prev[at[first]]
        last = np.roll(first, -1)
        self._prev[at[last]] = rows[last]
        totals = rows.sum(axis=1) + FNA_EPS
        churns = np.minimum(1.0, np.abs(rows - prev).sum(axis=1) / totals)
        targets = rows.argmax(axis=1)
        # short[i][o]: evaluation i's gap to the target, from owner o, is below min_gap
        short = (rows[np.arange(at.size), targets][:, None] - rows) / totals[:, None] < p.min_gap

        next_hop, cutoff = self.next_hop, p.inhibition_cutoff
        at_target, gap_below_min, inhibited = n + 1, n + 2, n + 3
        moves, dests, outcomes, inhibitions = [], [], [], []
        f = -1
        for g, j, requester, churn, target, too_short in zip(
            at.tolist(), evals.tolist(), requesters[evals].tolist(), churns.tolist(), targets.tolist(), short.tolist()
        ):
            if g != f:
                f, owner, history = g, owners[g], self._history[g]
                alternation = alternation_score(history)  # changes only with a move
            inhibition = oscillation_inhibition(churn, alternation)
            inhibitions.append(inhibition)
            if requester == owner or target == owner:  # the engine tags a local access itself
                outcomes.append(at_target)
            elif too_short[owner]:
                outcomes.append(gap_below_min)
            elif inhibition > cutoff:
                outcomes.append(inhibited)
            else:
                outcomes.append(target)
                owner = next_hop[owner][target]
                history.append(owner)
                alternation = alternation_score(history)
                moves.append(j)
                dests.append(owner)

        codes = np.full(order.size, n)
        codes[evals] = outcomes
        inhibition_at = np.full(order.size, np.nan)
        inhibition_at[evals] = inhibitions
        return np.array(moves, dtype=np.intp), np.array(dests, dtype=np.intp), codes, inhibition_at


# ---------------------------------------------------------------------------
# Construction from a declarative description


# The parameters each policy takes besides its name, with their JSON types:
# PolicySpec refuses any other, and the config reader reads these types.
POLICY_KEYS = {
    "optimal": {"counter_cap": int},
    "threshold": {"t": int},
    "nna": {"trigger": str, "t": int, "counter_cap": int},
    "fna": {"window": int, "decay": float, "history": int, "inhibition_cutoff": float, "min_gap": float},
}

# Each parameter's value when it is not given
_UNSET = {"t": None, "trigger": "dominance", "counter_cap": None, **vars(FnaParams())}


@dataclass(frozen=True)
class PolicySpec:
    """Everything needed to instantiate a policy for a given run.

    Construction raises ``ValueError`` on any parameter that
    :data:`POLICY_KEYS` does not give the policy, or any bad value. The
    policy classes, the config reader and the ``compare`` tokens rely on it.
    """

    name: str
    t: Optional[int] = None
    trigger: str = "dominance"
    counter_cap: Optional[int] = None
    fna: FnaParams = field(default_factory=FnaParams)

    def __post_init__(self):
        name, t, cap = self.name, self.t, self.counter_cap
        if name not in POLICY_KEYS:
            raise ValueError(f"unknown policy {name!r}, expected optimal, threshold, nna or fna")
        given = {"t": t, "trigger": self.trigger, "counter_cap": cap, **vars(self.fna)}
        for key, value in given.items():
            if value != _UNSET[key] and key not in POLICY_KEYS[name]:
                raise ValueError(f"{key}: {name} takes no {key}")
        if self.trigger not in ("dominance", "threshold"):
            raise ValueError(f"trigger must be 'dominance' or 'threshold', got {self.trigger!r}")
        if name == "threshold" or self.trigger == "threshold":
            if not (is_int(t) and t >= 0):
                raise ValueError(f"t: {name} needs an integer t >= 0, got {t!r}")
        elif t is not None:
            raise ValueError(f"t: nna takes t only with the threshold trigger, got t={t!r}")
        if cap is not None and not (is_int(cap) and 1 <= cap < 2**63):  # numpy caps int64 counters with it
            raise ValueError(f"counter_cap: must be an integer in [1, 2**63), got {cap!r}")


def build_policy(spec: PolicySpec, num_fragments: int, next_hop: list[list[SiteId]]):
    """Instantiate the policy ``spec`` names; ``next_hop`` is the routing table as lists, one per site."""
    if spec.name == "optimal":
        return OptimalPolicy(num_fragments, len(next_hop), counter_cap=spec.counter_cap)
    if spec.name == "threshold":
        return ThresholdPolicy(num_fragments, spec.t)
    if spec.name == "nna":
        return NnaPolicy(num_fragments, next_hop, trigger=spec.trigger, t=spec.t, counter_cap=spec.counter_cap)
    return FnaPolicy(num_fragments, next_hop, params=spec.fna)
