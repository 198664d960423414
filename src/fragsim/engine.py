"""Discrete-step simulation loop with residency and cost accounting.

Per step, every fragment gets one chance to emit an access. For each
event the engine samples residency at the current owner (before the
policy reacts), charges a round-trip response cost, lets the policy
decide on a migration, and applies any move to its ``owners`` list,
which it alone writes.

Costs:

* response cost of an access: ``2 * distance(requester, owner) *
  per_hop_latency``, plus, when ``migration_blocking`` is on and the
  fragment is still in flight from an earlier move, the remaining steps
  of the transfer window as queueing delay;
* migration cost of a move: ``size * distance(source, dest) *
  per_hop_latency``, with a transfer window of
  ``ceil(size * distance(source, dest))`` steps.

Accounting per block: the engine takes each
:class:`~fragsim.workload.Block` of events from
:meth:`~fragsim.workload.EventStream.blocks` and hands it to the policy's
``decide_block`` (see :mod:`~fragsim.policies`), which reads ``owners``
and returns the block's moves, in its grouped positions, with a reason
code per event. Every policy decides the block with array operations,
and the accounting keeps the moves in that grouped order. One forward
fill, :func:`_forward_fill`, gives each event the value its fragment's
latest earlier move set, or the value carried into the block, and each
fragment's value after the block. It fills each event's owner and the
``owners`` carried into the next block, and under blocking the transfer
windows' ends, carried from block to block in ``in_flight_until``. The
ends are floats, exact below 2**53 steps, so no window wraps an int64.
Apart from ``fna``'s inhibitions in the decision log, the engine has no
per-access Python loop: ``np.bincount`` of the owners adds to the residency counts,
and the response and migration costs are computed as arrays. An
access's response cost is read from a table of ``(2.0 * distance) *
latency`` by requester and owner, made once per run. Each array of
costs is added to its running total by seeding its first term in place
(``costs[0] += total``) and taking ``np.cumsum``, which adds strictly
left to right, so each total is the one a per-access or per-move ``+=``
gives, bit for bit; ``np.sum`` adds pairwise and would not be. Only
that sum and the decision log need access order: one ``np.argsort`` of
the moves' access positions orders the migration costs.

Shared stream: a config's ``workload`` is the distribution its stream
draws from, and its ``rate`` and ``seed`` are the draw. :func:`run_group`
runs configs on one :class:`~fragsim.workload.EventStream` when they
share one ``topology`` object and one ``workload`` object and are equal
in every other field but ``policy`` (equal :meth:`SimConfig.stream_key`);
equal objects built apart are not enough. Each block of events is drawn once
and handed to each policy in the order of the configs. A policy never
writes into the block's arrays; the block's index is built at most once,
for the first policy that reads it, and shared by the rest. Each policy
keeps its own ``owners``, cost totals, transfer windows and
decision-log writer, so every config gets the metrics and log that a run
of its own gives, bit for bit, while the events are drawn once.
:func:`run` is the one-config case of the same loop.

Blocking only adds waiting time; which events occur, what the policy
decides, and where fragments travel are identical with blocking on or
off. That makes blocking runs directly comparable against non-blocking
ones at equal trajectories.

Decision log: given a ``write`` callable, :func:`run` writes
``DECISIONS_HEADER`` and then one CSV line per access as the run goes.
``_row_writer`` joins each block's lines from per-field tables of texts
made once per run and keeps nothing else, so a logged run's memory does
not grow with its length. A row holds only ints, fixed reason tags (their
only punctuation is ``:``), ``repr`` floats and ``""`` for no inhibition;
no field needs quoting, so joining the fields with commas gives the bytes
``csv.writer`` would.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .policies import PolicySpec, build_policy
from .topology import SiteId, Topology, is_int
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
    rate: float = 1.0  # each trial's chance to emit an access
    seed: int = 0
    designated: SiteId = 0
    per_hop_latency: float = 1.0
    migration_blocking: bool = False

    def validate(self) -> None:
        """Check the run's shape. Each message starts with its config key; NaN fails every bound.

        Step counts and site ids must be Python or numpy integers; bools are not.
        """
        n = self.topology.n
        count = len(self.sizes)
        if not is_int(self.num_steps):
            raise ValueError(f"num_steps: must be an integer, got {self.num_steps!r}")
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
            if not (is_int(owner) and 0 <= owner < n):
                raise ValueError(f"initial_owners: owner {owner!r} is not a site in 0..{n - 1}")
        if not (is_int(self.designated) and 0 <= self.designated < n):
            raise ValueError(f"designated: {self.designated!r} is not a site in 0..{n - 1}")
        if not (0 < self.per_hop_latency < math.inf):
            raise ValueError(f"per_hop_latency: must be positive and finite, got {self.per_hop_latency}")
        if self.workload.num_fragments != count:
            raise ValueError(f"workload.probs: {self.workload.num_fragments} rows for {count} fragments")
        if self.workload.num_sites != n:
            raise ValueError(f"workload.probs: rows have {self.workload.num_sites} sites, topology has {n}")

    def stream_key(self) -> tuple:
        """Every field but ``policy``: ``topology`` and ``workload`` by identity, the rest by value.

        Configs with equal keys draw the same events, so :func:`run_group`
        can run them on one event stream.
        """
        return tuple(tuple(v) if isinstance(v, list) else v for k, v in vars(self).items() if k != "policy")


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
    return run_group([cfg], [write])[0]


def run_group(cfgs: list, writes=None) -> list:
    """Simulate configs equal in every field but ``policy`` on one shared event stream.

    Each block of events is drawn once and handed to each policy in the
    order of ``cfgs``. ``writes[i]``, if given and not ``None``, receives
    ``cfgs[i]``'s decision log. Metrics come back in the order of
    ``cfgs``, each the one ``run(cfgs[i], writes[i])`` returns alone.
    """
    for cfg in cfgs:
        cfg.validate()
    first = cfgs[0]
    if any(cfg.stream_key() != first.stream_key() for cfg in cfgs[1:]):
        raise ValueError("policy: configs sharing a run may differ in their policy only")
    if writes is None:
        writes = [None] * len(cfgs)
    runs = [_PolicyRun(cfg, write) for cfg, write in zip(cfgs, writes, strict=True)]
    for block in EventStream(first.workload, first.rate, first.seed).blocks(first.num_steps):
        for one in runs:
            one.take(block)
    return [one.metrics() for one in runs]


class _PolicyRun:
    """One policy's side of a run: the policy, its ``owners``, its totals and its decision log."""

    def __init__(self, cfg: SimConfig, write):
        topo = cfg.topology
        self.cfg = cfg
        self.policy = build_policy(cfg.policy, len(cfg.sizes), topo.next_hop_matrix.tolist())
        self.sizes = np.array(cfg.sizes, dtype=float)
        self.owners = list(cfg.initial_owners)
        self.in_flight_until = np.zeros(len(cfg.sizes))  # each fragment's transfer window end
        self.log = None if write is None else _row_writer(write, topo.n, len(cfg.sizes), self.policy.reasons)
        self.migrations = 0
        self.residency = np.zeros(topo.n, dtype=np.int64)
        self.response_cost = 0.0
        self.migration_hop_cost = 0.0
        # response cost of an access by requester * n + owner
        self.prices = (2.0 * topo.distance_matrix * cfg.per_hop_latency).ravel()

    def take(self, block) -> None:
        """Decide one block of events, log it and add its costs."""
        cfg = self.cfg
        n = cfg.topology.n
        latency = cfg.per_hop_latency
        steps, fragments, requesters = block.steps, block.fragments, block.requesters
        grouped, dests, codes, inhibitions = self.policy.decide_block(block, self.owners)
        owner_at, after = _forward_fill(block, grouped, dests, self.owners)
        self.owners = after.tolist()
        at = block.by_fragment[0][grouped]  # each move's access position, the moves kept in grouped order
        if self.log is not None:
            self.log(block, owner_at, at, dests, codes, inhibitions)
        self.residency += np.bincount(owner_at, minlength=n)
        costs = self.prices[requesters * n + owner_at]
        moved_sizes = self.sizes[fragments[at]]
        hops = cfg.topology.distance_matrix[owner_at[at], dests]
        self.migrations += at.size
        migration_costs = (moved_sizes * hops * latency)[np.argsort(at, kind="stable")]  # in access order, the order they add up in
        self.migration_hop_cost = _running_sum(self.migration_hop_cost, migration_costs)
        if cfg.migration_blocking:
            windows = steps[at] + np.ceil(moved_sizes * hops)
            ends, self.in_flight_until = _forward_fill(block, grouped, windows, self.in_flight_until)
            costs += np.where(steps < ends, ends - steps, 0)
        self.response_cost = _running_sum(self.response_cost, costs)

    def metrics(self) -> SimMetrics:
        residency = self.residency.tolist()
        return SimMetrics(
            num_steps=self.cfg.num_steps,
            designated=self.cfg.designated,
            accesses_total=sum(residency),
            residency=residency,
            migrations=self.migrations,
            migration_hop_cost=self.migration_hop_cost,
            response_cost=self.response_cost,
            final_owners=dict(enumerate(self.owners)),
        )


def _running_sum(total: float, terms: np.ndarray) -> float:
    """``total`` plus each of ``terms`` in order, bit for bit as a per-term ``+=`` gives it.

    The total is seeded into ``terms[0]`` in place, so ``terms`` must be a scratch array.
    """
    if not terms.size:
        return total
    terms[0] += total
    return float(np.cumsum(terms, out=terms)[-1])


def _forward_fill(block, moves, values, carried):
    """``(filled, after)``: each event's value in force before it, in access order, and each fragment's after the block.

    ``moves`` are grouped positions of :attr:`~fragsim.workload.Block.by_fragment`
    in ascending order, ``values`` the value each sets and ``carried`` each
    fragment's value at the start of the block. A fragment's events hold
    its carried value up to its first move and each move's value after
    it; a move at a fragment's last event sets none of them, so the next
    fragment starts with its own carried value.
    """
    order, bounds = block.by_fragment
    m = order.size
    cut = np.searchsorted(moves, bounds[:-1])  # cut[f]: how many moves come before fragment f's
    edges = np.insert(moves + 1, cut, bounds[:-1])
    held = np.insert(values, cut, carried)  # per fragment: its carried value, then its moves' values
    filled = np.empty(m, dtype=held.dtype)
    filled[order] = np.repeat(held, np.diff(edges, append=m))
    return filled, held[np.append(cut[1:], moves.size) + np.arange(len(carried))]


def _row_writer(write, n, count, reasons):
    """Write ``DECISIONS_HEADER`` and return ``log``, which writes a block's lines to ``write``, one call per line.

    Between blocks it keeps only four tables of texts, by fragment, site, ``dest + 1`` and
    reason code (``local`` appended). Per block, ``log`` packs each access's fields into one int
    key, joins each distinct key's text from the tables and splices in ``fna``'s inhibitions.
    """
    write(DECISIONS_HEADER)
    local = len(reasons)  # the code of a local access, after the policy's own
    fragment_texts = np.array([f"{f}," for f in range(count)], dtype=object)
    site_texts = np.array([f"{s}," for s in range(n)], dtype=object)
    decision_texts = np.array(["stay,,", *(f"move,{d}," for d in range(n))], dtype=object)
    reason_texts = np.array([f"{reason},\n" for reason in (*reasons, "local")], dtype=object)

    def log(block, owner_at, moves, dests, codes, inhibitions):
        steps, requesters, order = block.steps, block.requesters, block.by_fragment[0]
        code_at = np.empty_like(codes)
        code_at[order] = codes
        code_at[requesters == owner_at] = local
        dest_at = np.zeros(steps.size, dtype=np.intp)  # dest + 1, 0 for a stay
        dest_at[moves] = dests + 1
        keys = ((block.fragments * n + requesters) * n + owner_at) * (n + 1) + dest_at
        keys, key_at = np.unique(keys * len(reason_texts) + code_at, return_inverse=True)
        fragment, requester, owner, dest, code = np.unravel_index(keys, (count, n, n, n + 1, len(reason_texts)))
        texts = fragment_texts[fragment] + site_texts[requester] + site_texts[owner] + decision_texts[dest] + reason_texts[code]
        heads, step_at = np.unique(steps, return_inverse=True)
        heads = np.array([f"{s}," for s in heads.tolist()], dtype=object)
        lines = heads[step_at] + texts[key_at]
        if inhibitions is not None:
            evaluated = np.flatnonzero(~np.isnan(inhibitions))
            at = order[evaluated]
            lines[at] = [f"{line[:-1]}{inh}\n" for line, inh in zip(lines[at].tolist(), inhibitions[evaluated].tolist())]
        deque(map(write, lines.tolist()), 0)

    return log
