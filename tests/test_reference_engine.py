"""The engine against ``reference_engine``, field by field and line by line.

Hypothesis draws small connected graphs, multi-fragment workloads at
dense and thinned rates, optional active sets, oscillation and blocking
with sizes other than 1, every policy, and block sizes from one trial
up. Both engines must agree on
every ``SimMetrics`` field, compared by ``repr`` so floats match bit for
bit and ints stay Python ints, and on the whole decision log.
"""

from dataclasses import fields
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_engine
from fragsim import workload
from fragsim.engine import SimConfig, SimMetrics, run
from fragsim.policies import FnaParams, PolicySpec
from fragsim.topology import build_topology
from fragsim.workload import Oscillation, WorkloadSpec

POLICIES = st.one_of(
    st.builds(PolicySpec, st.just("threshold"), t=st.integers(0, 40)),
    st.builds(PolicySpec, st.just("optimal"), counter_cap=st.none() | st.integers(1, 5)),
    st.builds(PolicySpec, st.just("nna"), counter_cap=st.none() | st.integers(1, 5)),
    st.builds(PolicySpec, st.just("nna"), trigger=st.just("threshold"), t=st.integers(0, 3)),
    st.builds(
        PolicySpec,
        st.just("fna"),
        fna=st.builds(FnaParams, window=st.sampled_from([1, 2, 5, 20]), history=st.integers(1, 6)),
    ),
)


@st.composite
def configs(draw):
    n = draw(st.integers(1, 9))
    weight = st.sampled_from([0.5, 1.0, 2.5])
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}  # a spanning tree keeps it connected
    for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n)):
        if a != b:
            edges.add((min(a, b), max(a, b)))
    topology = build_topology(n, [(a, b, draw(weight)) for a, b in sorted(edges)])

    k = draw(st.integers(1, 4))
    active = draw(st.none() | st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    oscillation = None
    if n >= 2 and draw(st.booleans()):
        a, b = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        oscillation = Oscillation(a, b, draw(st.integers(1, 8)))
    rows = []
    for _ in range(k):
        w = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
        swapped = list(w)
        if oscillation is not None:
            swapped[a], swapped[b] = w[b], w[a]
        if not all(any(row[s] for s in (active or range(n))) for row in (w, swapped)):
            w = [1] * n  # both phases need mass on the active sites
        rows.append(np.array(w, dtype=float) / sum(w))
    workload = WorkloadSpec(
        np.array(rows),
        rate=draw(st.sampled_from([1.0, 0.5, 0.137])),
        active=None if active is None else tuple(active),
        seed=draw(st.integers(0, 2**32 - 1)),
        oscillation=oscillation,
    )
    return SimConfig(
        topology=topology,
        sizes=draw(st.lists(st.sampled_from([0.5, 1.0, 2.5, 4.0]), min_size=k, max_size=k)),
        initial_owners=draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k)),
        policy=draw(POLICIES),
        workload=workload,
        num_steps=draw(st.integers(1, 300)),
        designated=draw(st.integers(0, n - 1)),
        per_hop_latency=draw(st.sampled_from([1.0, 0.5, 3.0])),
        migration_blocking=draw(st.booleans()),
    )


# Small blocks make runs of up to 300 steps cross block boundaries.
@given(cfg=configs(), block=st.sampled_from([2, 7, 64, 4096]))
@settings(max_examples=300, deadline=None)
def test_engine_matches_reference(cfg, block):
    lines = []
    with mock.patch.object(workload, "BLOCK_TRIALS", block, create=True):
        metrics = run(cfg, lines.append)
    expected, expected_lines = reference_engine.run(cfg)
    for name in (f.name for f in fields(SimMetrics)):
        assert repr(getattr(metrics, name)) == repr(getattr(expected, name)), name
    assert lines == expected_lines
