"""Discrete-step simulation loop with residency and cost accounting.

Per step, every fragment gets one chance to emit an access. For each
event the engine samples residency at the current owner (before the
policy reacts), charges a round-trip response cost, lets the policy
decide on a migration, and applies any move to its ``owners`` list.

Costs:

* response cost of an access: ``2 * distance(requester, owner) *
  per_hop_latency``, plus, when ``migration_blocking`` is on and the
  fragment is still in flight from an earlier move, the remaining steps
  of the transfer window as queueing delay;
* migration cost of a move: ``size * distance(source, dest) *
  per_hop_latency``, with a transfer window of
  ``ceil(size * distance(source, dest))`` steps.

Accounting per block: the engine takes the events of a block of trials
from :meth:`~fragsim.workload.EventStream.blocks` and hands them to the
policy's ``decide_block`` (see :mod:`~fragsim.policies`), which applies
the block's moves to ``owners`` and returns each event's owner before
its decision and the moves in access order. ``threshold`` decides the
block with array operations; the other policies' ``decide`` is asked
once per event. Apart from writing the decision log, the engine has no
per-access Python loop: ``np.bincount`` of the owners adds to the
residency counts, and the response and migration costs are computed as
arrays (under blocking, each access's window end comes from its
fragment's latest earlier move) and added with ``np.cumsum`` seeded by
the running total. ``cumsum`` adds strictly left to right, so each total
is the one a per-access or per-move ``+=`` gives, bit for bit;
``np.sum`` adds pairwise and would not be.

Blocking only adds waiting time; which events occur, what the policy
decides, and where fragments travel are identical with blocking on or
off. That makes blocking runs directly comparable against non-blocking
ones at equal trajectories.

Decision log: given a ``write`` callable, :func:`run` writes
``DECISIONS_HEADER`` and then one CSV line per access as the run goes, so
no log is held in memory. A row holds only ints, fixed reason tags (their
only punctuation is ``:``), ``repr`` floats and ``""`` for ``None``; no
field ever needs quoting, so joining the fields with commas gives the
bytes ``csv.writer`` would. Lines are joined from cached pieces in
``_row_writer``, the one place a row is formatted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .policies import PolicySpec, build_policy
from .topology import SiteId, Topology
from .workload import EventStream, WorkloadSpec


DECISIONS_HEADER = "step,fragment,requester,owner_before,decision,dest,trigger_reason,inhibition\n"


@dataclass
class SimConfig:
    topology: Topology
    sizes: list[float]  # one per fragment; fragment ids are the positions 0..k-1
    initial_owners: list[SiteId]
    policy: PolicySpec
    workload: WorkloadSpec
    num_steps: int
    designated: SiteId = 0
    per_hop_latency: float = 1.0
    migration_blocking: bool = False

    def validate(self) -> None:
        """Check the run's shape. Each message starts with its config key; NaN fails every bound."""
        n = self.topology.n
        count = len(self.sizes)
        if self.num_steps < 1:
            raise ValueError(f"num_steps: must be >= 1, got {self.num_steps}")
        if count < 1:
            raise ValueError("fragments: need at least one fragment")
        for f, size in enumerate(self.sizes):
            if not (0 < size < math.inf):
                raise ValueError(f"fragments: fragment {f}: size must be positive and finite, got {size}")
        if len(self.initial_owners) != count:
            raise ValueError(f"initial_owners: expected {count} entries, got {len(self.initial_owners)}")
        for owner in self.initial_owners:
            if not (0 <= owner < n):
                raise ValueError(f"initial_owners: owner {owner!r} is not a site in 0..{n - 1}")
        if not (0 <= self.designated < n):
            raise ValueError(f"designated: {self.designated!r} is not a site in 0..{n - 1}")
        if not (0 < self.per_hop_latency < math.inf):
            raise ValueError(f"per_hop_latency: must be positive and finite, got {self.per_hop_latency}")
        if self.workload.num_fragments != count:
            raise ValueError(f"workload.probs: {self.workload.num_fragments} rows for {count} fragments")
        if self.workload.num_sites != n:
            raise ValueError(f"workload.probs: rows have {self.workload.num_sites} sites, topology has {n}")


@dataclass
class SimMetrics:
    """Aggregate counters for one run; see the module docstring for costs."""

    num_steps: int
    designated: SiteId
    accesses_total: int = 0
    residency: list = field(default_factory=list)  # per-site owner-at-access counts
    migrations: int = 0
    migration_hop_cost: float = 0.0
    response_cost: float = 0.0
    final_owners: dict = field(default_factory=dict)

    @property
    def o_s_hat(self) -> float:
        """Fraction of accesses that found the fragment resident at ``designated``."""
        if self.accesses_total == 0:
            raise ValueError("no accesses were sampled, cannot estimate residency")
        return self.residency[self.designated] / self.accesses_total

    @property
    def avg_move_time(self) -> float:
        return self.migration_hop_cost / max(1, self.migrations)


def run(cfg: SimConfig, write=None) -> SimMetrics:
    """Simulate ``cfg``; if ``write`` is given, stream the decision log to it."""
    cfg.validate()
    topo = cfg.topology
    n = topo.n
    num_fragments = len(cfg.sizes)
    policy = build_policy(cfg.policy, num_fragments, n, topo.next_hop_matrix.tolist())
    stream = EventStream(cfg.workload)

    dist = topo.distance_matrix
    sizes = np.array(cfg.sizes, dtype=float)
    owners = list(cfg.initial_owners)
    latency = cfg.per_hop_latency
    blocking = cfg.migration_blocking
    in_flight_until = [0] * num_fragments

    log = None
    if write is not None:
        write(DECISIONS_HEADER)
        log = _row_writer(write, n)
    migrations = 0
    residency = np.zeros(n, dtype=np.int64)
    response_cost = 0.0
    migration_hop_cost = 0.0

    for steps, fragments, requesters in stream.blocks(cfg.num_steps):
        owner_at, moves, dests, reasons, inhibitions = policy.decide_block(
            fragments, requesters, owners, explain=log is not None
        )
        if log is not None:
            log(steps, fragments, requesters, owner_at, moves, dests, reasons, inhibitions)
        residency += np.bincount(owner_at, minlength=n)
        costs = 2.0 * dist[requesters, owner_at] * latency
        moved_sizes = sizes[fragments[moves]]
        hops = dist[owner_at[moves], dests]
        migrations += moves.size
        migration_hop_cost = _running_sum(migration_hop_cost, moved_sizes * hops * latency)
        if blocking:
            windows = steps[moves] + np.ceil(moved_sizes * hops).astype(np.int64)
            costs += _blocking_waits(steps, fragments, moves, windows, in_flight_until)
        response_cost = _running_sum(response_cost, costs)

    residency = residency.tolist()
    return SimMetrics(
        num_steps=cfg.num_steps,
        designated=cfg.designated,
        accesses_total=sum(residency),
        residency=residency,
        migrations=migrations,
        migration_hop_cost=migration_hop_cost,
        response_cost=response_cost,
        final_owners=dict(enumerate(owners)),
    )


def _running_sum(total: float, terms: np.ndarray) -> float:
    """``total`` plus each of ``terms`` in order, bit for bit as a per-term ``+=`` gives it."""
    return float(np.cumsum(np.concatenate(([total], terms)))[-1])


def _row_writer(write, n):
    """Return ``log``, which writes a block's decision-log lines to ``write``.

    This is the one place a row is formatted. Each line is joined from
    lookup tables: the step's text, made once per step; a cached
    ``"fragment,requester,owner,"`` prefix; and a cached tail per
    ``(dest, reason)``, followed by the inhibition.
    """
    prefixes = {}  # (f * n + requester) * n + owner -> "f,requester,owner,"
    tails = {}  # (dest, reason) -> "move,dest,reason," or "stay,,reason,"
    last = [-1, ""]  # the latest step and its text, which may continue into the next block

    def log(steps, fragments, requesters, owner_at, moves, dests, reasons, inhibitions):
        dest_at = np.full(steps.size, -1, dtype=np.intp)
        dest_at[moves] = dests
        keys = ((fragments * n + requesters) * n + owner_at).tolist()
        step, head = last
        if inhibitions is None:
            inhibitions = repeat(None)
        for s, key, dest, reason, inh in zip(steps.tolist(), keys, dest_at.tolist(), reasons, inhibitions):
            if s != step:
                step, head = s, f"{s},"
            try:
                prefix = prefixes[key]
            except KeyError:
                f, rest = divmod(key, n * n)
                prefix = prefixes[key] = "{},{},{},".format(f, *divmod(rest, n))
            try:
                tail = tails[dest, reason]
            except KeyError:
                tail = tails[dest, reason] = f"move,{dest},{reason}," if dest >= 0 else f"stay,,{reason},"
            if inh is None:
                write(head + prefix + tail + "\n")
            else:
                write(f"{head}{prefix}{tail}{inh}\n")
        last[:] = step, head

    return log


def _blocking_waits(steps, fragments, moves, windows, until) -> np.ndarray:
    """Queueing delay of each access of a block under migration blocking.

    An access waits ``end - step`` while its fragment's transfer window,
    set by the fragment's latest earlier move, ends after ``step``.
    ``moves`` are the block's moving accesses in order and ``windows``
    their window ends. ``until`` holds each fragment's window end at the
    start of the block and is advanced to its value at the end of it.
    """
    ends = np.empty(steps.size, dtype=np.int64)
    moved = fragments[moves]
    for f in range(len(until)):
        at = np.flatnonzero(fragments == f)
        mine = moved == f
        in_force = np.concatenate(([until[f]], windows[mine]))  # entry k: after the k-th move of the block
        ends[at] = in_force[np.searchsorted(moves[mine], at)]
        until[f] = int(in_force[-1])
    return np.where(steps < ends, ends - steps, 0)
