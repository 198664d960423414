"""Discrete-step simulation loop with residency and cost accounting.

Per step, every fragment gets one chance to emit an access. For each
event the engine samples residency at the current owner (before the
policy reacts), charges a round-trip response cost, asks the policy's
``decide`` for a destination, and applies any migration to its
``owners`` list.

Costs:

* response cost of an access: ``2 * distance(requester, owner) *
  per_hop_latency``, plus, when ``migration_blocking`` is on and the
  fragment is still in flight from an earlier move, the remaining steps
  of the transfer window as queueing delay;
* migration cost of a move: ``size * distance(source, dest) *
  per_hop_latency``, with a transfer window of
  ``ceil(size * distance(source, dest))`` steps.

Blocking only adds waiting time; which events occur, what the policy
decides, and where fragments travel are identical with blocking on or
off. That makes blocking runs directly comparable against non-blocking
ones at equal trajectories.

Decision log: given a ``write`` callable, :func:`run` writes
``DECISIONS_HEADER`` and then one CSV line per access as the run goes, so
no log is held in memory. A row holds only ints, fixed reason tags (their
only punctuation is ``:``), ``repr`` floats and ``""`` for ``None``; no
field ever needs quoting, so an f-string gives the bytes ``csv.writer`` would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
        n = self.topology.n
        if self.num_steps < 1:
            raise ValueError(f"num_steps must be >= 1, got {self.num_steps}")
        if len(self.sizes) != len(self.initial_owners):
            raise ValueError("sizes and initial_owners length mismatch")
        if not self.sizes:
            raise ValueError("need at least one fragment")
        for f, size in enumerate(self.sizes):
            if size <= 0:
                raise ValueError(f"fragment {f}: size must be positive, got {size}")
        for owner in self.initial_owners:
            if not (0 <= owner < n):
                raise ValueError(f"initial owner {owner} out of range for {n} sites")
        if not (0 <= self.designated < n):
            raise ValueError(f"designated site {self.designated} out of range for {n} sites")
        if self.per_hop_latency <= 0:
            raise ValueError(f"per_hop_latency must be positive, got {self.per_hop_latency}")
        if self.workload.num_sites != n:
            raise ValueError(f"workload is over {self.workload.num_sites} sites, topology has {n}")
        if self.workload.num_fragments != len(self.sizes):
            raise ValueError(
                f"workload describes {self.workload.num_fragments} fragments, config has {len(self.sizes)}"
            )


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
    sizes = cfg.sizes
    num_fragments = len(sizes)
    policy = build_policy(cfg.policy, num_fragments, n, topo.next_hop_matrix.tolist())
    stream = EventStream(cfg.workload)

    dist = topo.distance_matrix.tolist()  # plain lists are faster in the loop
    owners = list(cfg.initial_owners)
    latency = cfg.per_hop_latency
    blocking = cfg.migration_blocking
    in_flight_until = [0] * num_fragments

    metrics = SimMetrics(num_steps=cfg.num_steps, designated=cfg.designated)
    residency = [0] * n
    if write is not None:
        write(DECISIONS_HEADER)

    next_event = stream.next_event
    decide = policy.decide
    accesses = 0
    migrations = 0
    response_cost = 0.0
    migration_hop_cost = 0.0
    fragment_range = range(num_fragments)

    for step in range(cfg.num_steps):
        for f in fragment_range:
            requester = next_event(f)
            if requester is None:
                continue
            owner = owners[f]
            accesses += 1
            residency[owner] += 1
            cost = 2.0 * dist[requester][owner] * latency
            if blocking and step < in_flight_until[f]:
                cost += in_flight_until[f] - step
            response_cost += cost
            dest = decide(f, requester, owner)
            if write is not None:
                inh = policy.inhibition
                action = f"move,{dest}" if dest >= 0 else "stay,"
                write(f"{step},{f},{requester},{owner},{action},{policy.reason},{'' if inh is None else inh}\n")
            if dest >= 0:
                hop = dist[owner][dest]
                migration_hop_cost += sizes[f] * hop * latency
                migrations += 1
                if blocking:
                    in_flight_until[f] = step + math.ceil(sizes[f] * hop)
                owners[f] = dest

    metrics.accesses_total = accesses
    metrics.residency = residency
    metrics.migrations = migrations
    metrics.migration_hop_cost = migration_hop_cost
    metrics.response_cost = response_cost
    metrics.final_owners = dict(enumerate(owners))
    return metrics
