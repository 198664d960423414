"""Per-fragment allocation state: fragment sizes and saturating counters."""

import pytest

from fragsim.config import ConfigError, resolve_run
from fragsim.engine import SimConfig
from fragsim.policies import OptimalPolicy, PolicySpec
from fragsim.topology import complete_topology
from fragsim.workload import WorkloadSpec
from test_policies import drive_block


def run_doc(**overrides):
    doc = {
        "topology": {"n": 3, "links": [[0, 1], [1, 2]]},
        "policy": {"name": "threshold", "t": 1},
        "workload": {"x_s": 0.5},
        "num_steps": 10,
    }
    doc.update(overrides)
    return doc


class TestFragment:
    def test_defaults(self, tmp_path):
        assert resolve_run(run_doc(), tmp_path).sim.sizes == [1.0]
        assert resolve_run(run_doc(fragments={"count": 3}), tmp_path).sim.sizes == [1.0] * 3
        assert resolve_run(run_doc(fragments={"count": 2, "sizes": [0.5, 4]}), tmp_path).sim.sizes == [0.5, 4.0]

    def test_size_must_be_positive(self, tmp_path):
        for size in (0.0, -2.0):
            cfg = SimConfig(
                topology=complete_topology(3),
                sizes=[1.0, size],
                initial_owners=[0, 0],
                policy=PolicySpec("threshold", t=1),
                workload=WorkloadSpec.symmetric(2, 3, 0.5),
                num_steps=10,
            )
            with pytest.raises(ValueError, match="fragment 1: size must be positive"):
                cfg.validate()
            with pytest.raises(ConfigError, match="config.fragments: fragment 0: size must be positive"):
                resolve_run(run_doc(fragments={"count": 2, "size": size}), tmp_path)
            with pytest.raises(ConfigError, match="config.fragments: fragment 1"):
                resolve_run(run_doc(fragments={"count": 2, "sizes": [1.0, size]}), tmp_path)


class TestCounterCap:
    def test_saturates_instead_of_growing(self):
        policy = OptimalPolicy(1, 3, counter_cap=10)
        drive_block(policy, 0, [0] * 25)
        assert policy.counters[0][0] == 10

    def test_cap_blocks_dominance_forever(self):
        # Once the owner's counter sits at the cap, a challenger can tie
        # it but never strictly exceed it, so the fragment stops moving
        # no matter how one-sided the workload becomes. This is the
        # saturation anomaly the cap option exists to demonstrate.
        policy = OptimalPolicy(1, 2, counter_cap=5)
        assert drive_block(policy, 0, [0] * 5)[1] == [-1] * 5
        for _ in range(100):  # one block per access, so the counters can be read after each event
            assert drive_block(policy, 0, [1])[1] == [-1]
            if policy.counters[0][1] == 5:
                assert policy.counters[0][0] == 5, "both stuck at the cap"
        # without a cap the very same sequence migrates as soon as the
        # challenger passes the owner's five accesses
        unbounded = OptimalPolicy(1, 2)
        drive_block(unbounded, 0, [0] * 5)
        _, dests, _ = drive_block(unbounded, 0, [1] * 100)
        moved_at = next((k for k, dest in enumerate(dests) if dest >= 0), None)
        assert moved_at == 5, "sixth remote access exceeds five local ones"
