import csv
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import reference_engine
from fragsim import workload
from fragsim.engine import DECISIONS_HEADER, SimConfig, SimMetrics, _forward_fill, run, run_group
from fragsim.fixtures import reference_topology
from fragsim.policies import PolicySpec
from fragsim.topology import build_topology, complete_topology
from fragsim.workload import Block, Oscillation, WorkloadSpec


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

    @pytest.mark.parametrize("size", [float("nan"), float("inf")])
    def test_non_finite_size_rejected_under_blocking(self, size):
        with pytest.raises(ValueError, match="fragments: fragment 0: size must be positive"):
            run(threshold_config(sizes=[size], migration_blocking=True))

    @pytest.mark.parametrize("latency", [float("nan"), float("inf")])
    def test_non_finite_latency_rejected(self, latency):
        with pytest.raises(ValueError, match="per_hop_latency"):
            run(threshold_config(per_hop_latency=latency))

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

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"num_steps": 2.5}, "num_steps: must be an integer, got 2.5"),
            ({"num_steps": True}, "num_steps: must be an integer, got True"),
            ({"initial_owners": [1.5]}, r"initial_owners: owner 1.5 is not a site in 0\.\.4"),
            ({"initial_owners": [True]}, r"initial_owners: owner True is not a site in 0\.\.4"),
            ({"designated": 1.5}, r"designated: 1.5 is not a site in 0\.\.4"),
            ({"designated": True}, r"designated: True is not a site in 0\.\.4"),
        ],
    )
    def test_non_integer_rejected(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            threshold_config(**overrides).validate()

    def test_numpy_integers_accepted(self):
        cfg = threshold_config(num_steps=np.int64(50), initial_owners=[np.int64(1)], designated=np.int32(1))
        assert run(cfg) == run(threshold_config(num_steps=50, initial_owners=[1], designated=1))


    @pytest.mark.parametrize(
        "overrides",
        [
            {"num_steps": 2001},
            {"workload": WorkloadSpec.symmetric(1, 5, 0.28, seed=2)},
            {"initial_owners": [1]},
            {"migration_blocking": True},
        ],
        ids=["steps", "seed", "owners", "blocking"],
    )
    def test_shared_run_takes_configs_differing_in_policy_only(self, overrides):
        with pytest.raises(ValueError, match="differ in their policy only"):
            run_group([threshold_config(), threshold_config(policy=PolicySpec("nna"), **overrides)])

    def test_stream_key_compares_by_value(self):
        # topologies and workloads built apart still share a stream
        a = threshold_config()
        b = threshold_config(policy=PolicySpec("optimal"))
        assert a.topology is not b.topology and a.workload is not b.workload
        assert a.stream_key() == b.stream_key()
        assert run_group([a, b]) == [run(a), run(b)]


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
        """(metrics, decision log lines) without and with blocking."""
        results = []
        for blocking in (False, True):
            lines = []
            cfg = SimConfig(
                topology=build_topology(2, [(0, 1)]),
                sizes=[size],
                initial_owners=[0],
                policy=PolicySpec("threshold", t=0),
                workload=WorkloadSpec(np.array([[0.0, 1.0]]), seed=0),
                num_steps=num_steps,
                migration_blocking=blocking,
            )
            results.append((run(cfg, lines.append), lines))
        return results

    def test_in_flight_window_adds_waiting_time(self):
        # size 2.5 over one hop: window ceil(2.5) = 3 steps; the accesses
        # at steps 1 and 2 wait 2 and 1 steps on top of their (local,
        # zero) response cost
        (plain, _), (blocked, _) = self.blocking_pair(2.5, num_steps=3)
        assert plain.response_cost == 2.0  # one remote round trip
        assert blocked.response_cost == 5.0

    def test_blocking_changes_costs_only(self):
        (plain, plain_log), (blocked, blocked_log) = self.blocking_pair(4.0, num_steps=40)
        assert blocked.response_cost >= plain.response_cost
        assert len(plain_log) == plain.accesses_total + 1
        assert plain_log == blocked_log
        assert plain.migrations == blocked.migrations
        assert plain.final_owners == blocked.final_owners
        assert plain.residency == blocked.residency

    def test_window_too_long_for_an_int64_still_delays(self):
        # size 1e300 over one hop: the accesses at steps 1 and 2 each wait about 1e300 steps
        (plain, _), (blocked, _) = self.blocking_pair(1e300, num_steps=3)
        assert plain.response_cost == 2.0
        assert blocked.response_cost == 2.0 + (1e300 - 1) + (1e300 - 2)

    def test_window_one_never_delays(self):
        # size 1 over one hop: the window closes before the next step
        (plain, _), (blocked, _) = self.blocking_pair(1.0, num_steps=10)
        assert plain.response_cost == blocked.response_cost


class TestForwardFill:
    """The one forward fill behind the owners and the transfer windows of a block."""

    def block(self):
        # events in access order belong to fragments 0 2 0 3 0 2; fragment 1 has none
        fragments = np.array([0, 2, 0, 3, 0, 2], dtype=np.intp)
        block = Block(np.arange(6), fragments, np.zeros(6, dtype=np.intp), 4)
        assert block.by_fragment[0].tolist() == [0, 2, 4, 1, 5, 3]  # grouped positions 0-2, -, 3-4, 5
        return block

    def test_moves_set_the_values_of_later_events_and_after_the_block(self):
        # fragment 0 moves at its first and its last event, 2 at its last, 3 at its only one
        moves = np.array([0, 2, 4, 5], dtype=np.intp)
        values = np.array([10, 11, 12, 13], dtype=np.int64)
        carried = np.array([100, 101, 102, 103], dtype=np.int64)
        filled, after = _forward_fill(self.block(), moves, values, carried)
        assert filled.tolist() == [100, 102, 10, 103, 10, 102]
        assert after.tolist() == [11, 101, 12, 13]

    def test_no_moves_carry_every_value_through(self):
        carried = [3, 1, 4, 1]
        filled, after = _forward_fill(self.block(), np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp), carried)
        assert filled.tolist() == [3, 4, 3, 1, 3, 4]
        assert after.tolist() == carried


class TestDeterminismAndConservation:
    def osc_config(self, policy):
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
        )

    def test_identical_runs_identical_results(self):
        a_log, b_log = [], []
        a = run(self.osc_config(PolicySpec("fna")), a_log.append)
        b = run(self.osc_config(PolicySpec("fna")), b_log.append)
        assert len(a_log) == a.accesses_total + 1
        assert a_log == b_log
        assert a.residency == b.residency
        assert a.response_cost == b.response_cost
        assert a.migration_hop_cost == b.migration_hop_cost

    @pytest.mark.parametrize(
        "policy",
        [PolicySpec("optimal"), PolicySpec("threshold", t=3), PolicySpec("nna"), PolicySpec("fna")],
        ids=lambda spec: spec.name,
    )
    def test_decision_log_reconstructs_ownership(self, policy):
        lines = []
        metrics = run(self.osc_config(policy), lines.append)
        assert lines[0] == DECISIONS_HEADER
        rows = list(csv.DictReader(lines))
        owner = 0
        moves = 0
        for row in rows:
            assert int(row["owner_before"]) == owner
            if row["decision"] == "move":
                dest = int(row["dest"])
                assert dest != owner, "a move never targets the current owner"
                owner = dest
                moves += 1
            else:
                assert row["decision"] == "stay"
                assert row["dest"] == ""
        assert owner == metrics.final_owners[0]
        assert moves == metrics.migrations
        assert sum(metrics.residency) == metrics.accesses_total
        assert len(rows) == metrics.accesses_total

    def test_decision_log_off_by_default(self):
        # logging is opt-in, and streaming it never changes the run itself
        lines = []
        logged = run(self.osc_config(PolicySpec("nna")), lines.append)
        plain = run(self.osc_config(PolicySpec("nna")))
        assert len(lines) == logged.accesses_total + 1
        assert plain == logged


class TestBlockBoundaries:
    # 3 fragments over BLOCK_TRIALS // 3 + 1 steps leave a final block of 2
    # trials; at rate 0.137 a full block uses about 1.14 of its 2 draws per
    # trial, so far more than 4 draws carry over into it. t = 5000 carries
    # a count across every block; the t = 0 cases keep their plain ids.
    @pytest.mark.parametrize(
        "num_steps, t",
        [
            pytest.param(num_steps, t, id=f"{num_steps}" if t == 0 else f"{num_steps}-t{t}")
            for t in (0, 3, 5000)
            for num_steps in (1, 50, workload.BLOCK_TRIALS // 3 + 1)
        ],
    )
    def test_block_size_never_changes_a_run(self, monkeypatch, num_steps, t):
        cfg = SimConfig(
            topology=reference_topology(),
            sizes=[1.0, 2.5, 4.0],
            initial_owners=[0, 3, 8],
            policy=PolicySpec("threshold", t=t),
            workload=WorkloadSpec.symmetric(3, 9, 0.5, hot=6, rate=0.137, seed=13, oscillation=Oscillation(6, 2, 3)),
            num_steps=num_steps,
            designated=6,
            migration_blocking=True,
        )
        runs = []
        for block in (1, 3, workload.BLOCK_TRIALS):
            monkeypatch.setattr(workload, "BLOCK_TRIALS", block)
            lines = []
            runs.append((run(cfg, lines.append), lines))
        assert runs[0] == runs[1] == runs[2] == reference_engine.run(cfg)


class TestSharedBlockIndex:
    """The cells of a group read one index per block; cells that never read it never build it."""

    @pytest.fixture
    def built(self, monkeypatch):
        built = []
        init = workload.BlockIndex.__init__

        def counting(index, block):
            built.append(block)
            init(index, block)

        monkeypatch.setattr(workload.BlockIndex, "__init__", counting)
        return built

    def cells(self, *policies):
        cfg = threshold_config(
            sizes=[1.0, 2.5, 4.0],
            initial_owners=[0, 3, 4],
            workload=WorkloadSpec.symmetric(3, 5, 0.4, hot=2, rate=0.5, seed=3),
            num_steps=3000,
            migration_blocking=True,
        )
        return [replace(cfg, policy=policy) for policy in policies]

    def test_threshold_cells_build_one_index_per_block(self, built):
        thresholds = [PolicySpec("threshold", t=t) for t in (0, 3, 7)]
        cells = self.cells(thresholds[0], PolicySpec("optimal"), *thresholds[1:])
        shared = run_group(cells)
        assert len(built) == len({id(block) for block in built}) == -(-3000 * 3 // workload.BLOCK_TRIALS)
        assert [repr(m) for m in shared] == [repr(run(cell)) for cell in cells]

    def test_other_policies_never_build_it(self, built):
        run_group(self.cells(PolicySpec("optimal"), PolicySpec("nna"), PolicySpec("fna")))
        assert built == []


def test_run_never_imports_numpy_random():
    # numpy.random alone adds about 6 MB of resident memory to every run
    code = (
        "import sys, fragsim, fragsim.cli\n"
        "from fragsim.engine import SimConfig, run\n"
        "from fragsim.policies import PolicySpec\n"
        "from fragsim.topology import complete_topology\n"
        "from fragsim.workload import WorkloadSpec\n"
        "spec = WorkloadSpec.symmetric(2, 3, 0.5, rate=0.5)\n"
        "run(SimConfig(complete_topology(3), [1.0, 1.0], [0, 1], PolicySpec('nna'), spec, 100))\n"
        "assert 'numpy.random' not in sys.modules\n"
    )
    env = dict(os.environ)
    src = Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
