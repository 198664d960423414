from fractions import Fraction

import numpy as np
import pytest

from fragsim.engine import SimConfig, SimMetrics, run
from fragsim.fixtures import reference_topology
from fragsim.policies import PolicySpec
from fragsim.topology import build_topology, complete_topology
from fragsim.workload import Oscillation, WorkloadSpec


def threshold_config(**overrides):
    base = dict(
        topology=complete_topology(5),
        sizes=[1.0],
        initial_owners=[0],
        policy=PolicySpec("threshold", t=3),
        workload=WorkloadSpec.symmetric(1, 5, 0.28, seed=1),
        num_steps=2000,
    )
    base.update(overrides)
    return SimConfig(**base)


class TestValidation:
    def test_owner_fragment_mismatch(self):
        cfg = threshold_config(initial_owners=[0, 1])
        with pytest.raises(ValueError):
            run(cfg)

    def test_owner_out_of_range(self):
        cfg = threshold_config(initial_owners=[9])
        with pytest.raises(ValueError):
            run(cfg)

    def test_steps_positive(self):
        cfg = threshold_config(num_steps=0)
        with pytest.raises(ValueError):
            run(cfg)

    def test_workload_width_must_match_topology(self):
        cfg = threshold_config(workload=WorkloadSpec.symmetric(1, 4, 0.3))
        with pytest.raises(ValueError):
            run(cfg)

    def test_workload_fragment_count_must_match(self):
        cfg = threshold_config(workload=WorkloadSpec.symmetric(2, 5, 0.3))
        with pytest.raises(ValueError):
            run(cfg)

    def test_sizes_positive(self):
        for size in (0.0, -2.0):
            with pytest.raises(ValueError, match="size must be positive"):
                run(threshold_config(sizes=[size]))

    def test_fragment_ids_sequential(self):
        # Fragment ids are the positions in ``sizes``: fragment 1 is the
        # one that moves here, so its size 2.5 is what the move costs.
        cfg = SimConfig(
            topology=build_topology(2, [(0, 1)]),
            sizes=[1.0, 2.5],
            initial_owners=[0, 0],
            policy=PolicySpec("threshold", t=0),
            workload=WorkloadSpec(np.array([[1.0, 0.0], [0.0, 1.0]]), seed=3),
            num_steps=5,
        )
        metrics = run(cfg)
        assert metrics.final_owners == {0: 0, 1: 1}
        assert metrics.migration_hop_cost == 2.5

    def test_designated_in_range(self):
        cfg = threshold_config(designated=7)
        with pytest.raises(ValueError):
            run(cfg)

    def test_latency_positive(self):
        cfg = threshold_config(per_hop_latency=0.0)
        with pytest.raises(ValueError):
            run(cfg)


class TestEstimateOs:
    def test_basic_fraction(self):
        metrics = SimMetrics(num_steps=10, designated=0, accesses_total=100, residency=[80, 20])
        assert metrics.o_s_hat == pytest.approx(0.8)
        metrics.designated = 1
        assert metrics.o_s_hat == pytest.approx(0.2)

    def test_shares_sum_to_one(self):
        metrics = SimMetrics(num_steps=10, designated=0, accesses_total=60, residency=[10, 20, 30])
        total = sum(Fraction(metrics.residency[s], metrics.accesses_total) for s in range(3))
        assert total == 1

    def test_no_accesses(self):
        metrics = SimMetrics(num_steps=10, designated=0, accesses_total=0, residency=[0])
        with pytest.raises(ValueError, match="no accesses"):
            metrics.o_s_hat


class TestSmallExactRuns:
    def test_single_site_everything_local(self):
        cfg = SimConfig(
            topology=build_topology(1, []),
            sizes=[1.0],
            initial_owners=[0],
            policy=PolicySpec("threshold", t=0),
            workload=WorkloadSpec(np.array([[1.0]]), seed=2),
            num_steps=500,
        )
        metrics = run(cfg)
        assert metrics.accesses_total == 500
        assert metrics.migrations == 0
        assert metrics.o_s_hat == 1.0
        assert metrics.response_cost == 0.0

    def test_hand_computed_costs(self):
        # 0 -- 1, all traffic from site 1, threshold 0: the very first
        # access pays one round trip (2 * 1 * latency 2 = 4), pulls the
        # fragment over (1 hop * size 1 * latency 2 = 2), rest is local.
        cfg = SimConfig(
            topology=build_topology(2, [(0, 1)]),
            sizes=[1.0],
            initial_owners=[0],
            policy=PolicySpec("threshold", t=0),
            workload=WorkloadSpec(np.array([[0.0, 1.0]]), seed=0),
            num_steps=3,
            per_hop_latency=2.0,
        )
        metrics = run(cfg)
        assert metrics.accesses_total == 3
        assert metrics.migrations == 1
        assert metrics.response_cost == 4.0
        assert metrics.migration_hop_cost == 2.0
        assert metrics.avg_move_time == 2.0
        assert metrics.residency == [1, 2], "residency sampled at the pre-move owner"
        assert metrics.final_owners == {0: 1}
        assert metrics.o_s_hat == pytest.approx(1 / 3)

    def test_avg_move_time_zero_migrations(self):
        cfg = SimConfig(
            topology=build_topology(1, []),
            sizes=[1.0],
            initial_owners=[0],
            policy=PolicySpec("optimal"),
            workload=WorkloadSpec(np.array([[1.0]]), seed=2),
            num_steps=10,
        )
        metrics = run(cfg)
        assert metrics.avg_move_time == 0.0

    def test_multi_fragment_independence(self):
        cfg = SimConfig(
            topology=complete_topology(3),
            sizes=[1.0, 1.0],
            initial_owners=[0, 0],
            policy=PolicySpec("threshold", t=0),
            workload=WorkloadSpec(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]), seed=6),
            num_steps=100,
        )
        metrics = run(cfg)
        assert metrics.final_owners == {0: 0, 1: 2}
        assert metrics.migrations == 1


class TestMigrationBlocking:
    def blocking_pair(self, size, num_steps=6):
        results = []
        for blocking in (False, True):
            cfg = SimConfig(
                topology=build_topology(2, [(0, 1)]),
                sizes=[size],
                initial_owners=[0],
                policy=PolicySpec("threshold", t=0),
                workload=WorkloadSpec(np.array([[0.0, 1.0]]), seed=0),
                num_steps=num_steps,
                migration_blocking=blocking,
                record_decisions=True,
            )
            results.append(run(cfg))
        return results

    def test_in_flight_window_adds_waiting_time(self):
        # size 2.5 over one hop: window ceil(2.5) = 3 steps; the accesses
        # at steps 1 and 2 wait 2 and 1 steps on top of their (local,
        # zero) response cost
        plain, blocked = self.blocking_pair(2.5, num_steps=3)
        assert plain.response_cost == 2.0  # one remote round trip
        assert blocked.response_cost == 5.0

    def test_blocking_changes_costs_only(self):
        plain, blocked = self.blocking_pair(4.0, num_steps=40)
        assert blocked.response_cost >= plain.response_cost
        assert plain.decision_log == blocked.decision_log
        assert plain.migrations == blocked.migrations
        assert plain.final_owners == blocked.final_owners
        assert plain.residency == blocked.residency

    def test_window_one_never_delays(self):
        # size 1 over one hop: the window closes before the next step
        plain, blocked = self.blocking_pair(1.0, num_steps=10)
        assert plain.response_cost == blocked.response_cost


class TestDeterminismAndConservation:
    def osc_config(self, policy, record=True):
        return SimConfig(
            topology=reference_topology(),
            sizes=[1.0],
            initial_owners=[0],
            policy=policy,
            workload=WorkloadSpec.symmetric(
                1, 9, 0.8, hot=6, seed=5, oscillation=Oscillation(6, 7, 30)
            ),
            num_steps=4000,
            designated=6,
            record_decisions=record,
        )

    def test_identical_runs_identical_results(self):
        a = run(self.osc_config(PolicySpec("fna")))
        b = run(self.osc_config(PolicySpec("fna")))
        assert a.decision_log == b.decision_log
        assert a.residency == b.residency
        assert a.response_cost == b.response_cost
        assert a.migration_hop_cost == b.migration_hop_cost

    @pytest.mark.parametrize(
        "policy",
        [PolicySpec("optimal"), PolicySpec("threshold", t=3), PolicySpec("nna"), PolicySpec("fna")],
        ids=lambda spec: spec.name,
    )
    def test_decision_log_reconstructs_ownership(self, policy):
        metrics = run(self.osc_config(policy))
        owner = 0
        moves = 0
        for rec in metrics.decision_log:
            assert rec.owner_before == owner
            if rec.action == "move":
                assert rec.dest != rec.owner_before, "a move never targets the current owner"
                owner = rec.dest
                moves += 1
            else:
                assert rec.dest is None
        assert owner == metrics.final_owners[0]
        assert moves == metrics.migrations
        assert sum(metrics.residency) == metrics.accesses_total
        assert len(metrics.decision_log) == metrics.accesses_total

    def test_decision_log_off_by_default(self):
        metrics = run(self.osc_config(PolicySpec("nna"), record=False))
        assert metrics.decision_log is None
