"""A slow, literal restatement of the simulator for differential tests.

Written from the ``workload``, ``engine`` and ``policies`` docstrings,
not from their code: one ``random()`` rate draw per trial, trials ordered
step-major and fragment-minor, a requester drawn by a linear scan of the
cumulative mass over the active sites, the oscillation phase taken from
the count of emitted events, and every cost charged access by access.
``threshold``, ``optimal`` and ``nna`` are restated naively; ``fna`` is a
frozen copy of the policy's arithmetic, both norms through ``np.sum``.
"""

from __future__ import annotations

import csv
import io
import math
import random
from collections import deque

import numpy as np

from fragsim.engine import DECISIONS_HEADER, SimMetrics
from fragsim.policies import FNA_EPS, alternation_score, oscillation_inhibition


def events(spec, num_steps):
    """Yield ``(step, fragment, requester)`` for every emitted access."""
    rng = random.Random(spec.seed)
    sites = list(range(spec.num_sites)) if spec.active is None else list(spec.active)
    emitted = [0] * spec.num_fragments
    osc = spec.oscillation
    for step in range(num_steps):
        for f in range(spec.num_fragments):
            if not rng.random() < spec.rate:
                continue
            mass = [float(m) for m in spec.probs[f]]
            if osc is not None and emitted[f] // osc.period % 2 == 1:
                mass[osc.site_a], mass[osc.site_b] = mass[osc.site_b], mass[osc.site_a]
            cum, total = [], 0.0
            for s in sites:
                total += mass[s]
                cum.append(total)
            u = rng.random() * total
            i = 0
            while cum[i] <= u:  # the first site whose cumulative mass exceeds u
                i += 1
            emitted[f] += 1
            yield step, f, sites[i]


class Policy:
    """All four policies; ``decide`` returns ``(dest or -1, reason, inhibition)``."""

    def __init__(self, spec, num_fragments, n, next_hop):
        self.spec, self.next_hop = spec, next_hop
        self.counters = [[0] * n for _ in range(num_fragments)]
        self.remote = [0] * num_fragments  # threshold's run, nna's remote-since-move
        self.v = [[0.0] * n for _ in range(num_fragments)]
        self.prev = [[0.0] * n for _ in range(num_fragments)]
        self.since = [0] * num_fragments
        self.history = [deque(maxlen=spec.fna.history) for _ in range(num_fragments)]

    def decide(self, f, req, owner):
        spec = self.spec
        if spec.name == "threshold":
            if req == owner:
                self.remote[f] = 0
                return -1, "local", None
            self.remote[f] += 1
            if self.remote[f] <= spec.t:
                return -1, "below-threshold", None
            self.remote[f] = 0
            return req, "threshold-exceeded", None
        if spec.name == "fna":
            return self.fna(f, req, owner)
        c = self.counters[f]
        c[req] = c[req] + 1 if spec.counter_cap is None else min(c[req] + 1, spec.counter_cap)
        if req == owner:
            return -1, "local", None
        if spec.name == "optimal":
            return (req, "dominance", None) if c[req] > c[owner] else (-1, "no-dominance", None)
        if spec.trigger == "threshold":
            self.remote[f] += 1
            fired = self.remote[f] > spec.t
        else:
            fired = c[req] > c[owner]
        if not fired:
            return -1, "no-trigger", None
        target = max(range(len(c)), key=lambda s: (c[s], -s))
        if target == owner:
            return -1, "at-target", None
        self.remote[f] = 0
        return self.next_hop[owner][target], f"toward:{target}", None

    def fna(self, f, req, owner):
        p = self.spec.fna
        v = self.v[f] = [x * p.decay for x in self.v[f]]
        v[req] += 1.0
        self.since[f] += 1
        if self.since[f] < p.window:
            return -1, "local" if req == owner else "no-eval", None
        self.since[f] = 0
        row = np.array(v)
        total = float(row.sum()) + FNA_EPS
        churn = min(1.0, float(np.abs(row - self.prev[f]).sum()) / total)
        self.prev[f] = v[:]
        inh = oscillation_inhibition(churn, alternation_score(self.history[f]))
        target = v.index(max(v))
        if req == owner:
            return -1, "local", inh
        if target == owner:
            return -1, "at-target", inh
        if (v[target] - v[owner]) / total < p.min_gap:
            return -1, "gap-below-min", inh
        if inh > p.inhibition_cutoff:
            return -1, "inhibited", inh
        dest = self.next_hop[owner][target]
        self.history[f].append(dest)
        return dest, f"toward:{target}", inh


def run(cfg):
    """``(SimMetrics, decision log lines)`` of ``cfg``, header line first."""
    topo, sizes, latency = cfg.topology, cfg.sizes, cfg.per_hop_latency
    dist = topo.distance_matrix.tolist()
    policy = Policy(cfg.policy, len(sizes), topo.n, topo.next_hop_matrix.tolist())
    owners = list(cfg.initial_owners)
    until = [0] * len(sizes)  # end of each fragment's current transfer window
    m = SimMetrics(num_steps=cfg.num_steps, designated=cfg.designated, residency=[0] * topo.n)
    out = io.StringIO()
    log = csv.writer(out, lineterminator="\n")
    log.writerow(DECISIONS_HEADER.rstrip("\n").split(","))
    for step, f, req in events(cfg.workload, cfg.num_steps):
        owner = owners[f]
        m.accesses_total += 1
        m.residency[owner] += 1
        cost = 2.0 * dist[req][owner] * latency
        if cfg.migration_blocking and step < until[f]:
            cost += until[f] - step
        m.response_cost += cost
        dest, reason, inh = policy.decide(f, req, owner)
        log.writerow([step, f, req, owner, "move" if dest >= 0 else "stay", dest if dest >= 0 else "", reason, inh])
        if dest >= 0:
            hop = dist[owner][dest]
            m.migrations += 1
            m.migration_hop_cost += sizes[f] * hop * latency
            until[f] = step + math.ceil(sizes[f] * hop)
            owners[f] = dest
    m.final_owners = dict(enumerate(owners))
    return m, out.getvalue().splitlines(keepends=True)
