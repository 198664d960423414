"""End-to-end CLI tests: exit codes, CSV schemas, determinism, seed plumbing."""

import concurrent.futures
import csv
import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
import time

import pytest

import fragsim.cli
import fragsim.config
import fragsim.engine
import fragsim.topology
from fragsim.cli import (
    COMPARE_HEADER,
    METRICS_HEADER,
    ORACLE_HEADER,
    SWEEP_HEADER,
    main,
)
from fragsim.config import ConfigError, resolve_sweep
from fragsim.engine import DECISIONS_HEADER
from fragsim.fixtures import reference_topology_dict


def write_json(path, doc):
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def base_run_doc(**overrides):
    doc = {
        "topology": {"n": 5, "links": [[a, b, 1.0] for a in range(5) for b in range(a + 1, 5)]},
        "policy": {"name": "threshold", "t": 3},
        "workload": {"x_s": 0.28},
        "num_steps": 2000,
        "seed": 1,
    }
    doc.update(overrides)
    return doc


class TestRunCommand:
    def test_successful_run(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "run.json", base_run_doc())
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        rows = read_rows(tmp_path / "out" / "metrics.csv")
        assert list(rows[0].keys()) == METRICS_HEADER
        assert rows[0]["policy"] == "threshold"
        assert rows[0]["n"] == "5"
        assert rows[0]["x_s"] == "0.28"
        assert rows[0]["t"] == "3"
        assert rows[0]["seed"] == "1"
        assert rows[0]["num_steps"] == "2000"
        assert 0.0 < float(rows[0]["o_s_hat"]) < 1.0
        assert not (tmp_path / "out" / "decisions.csv").exists()  # the log is opt-in

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_json(tmp_path / "run.json", base_run_doc())
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "a"), "--log-decisions"]) == 0
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "b"), "--log-decisions"]) == 0
        assert (tmp_path / "a" / "metrics.csv").read_bytes() == (tmp_path / "b" / "metrics.csv").read_bytes()
        assert (tmp_path / "a" / "decisions.csv").read_bytes() == (tmp_path / "b" / "decisions.csv").read_bytes()

    def test_decision_log_schema_and_reconstruction(self, tmp_path):
        cfg = write_json(tmp_path / "run.json", base_run_doc(num_steps=500))
        assert main(["run", "--config", cfg, "--out", str(tmp_path), "--log-decisions"]) == 0
        rows = read_rows(tmp_path / "decisions.csv")
        assert list(rows[0].keys()) == DECISIONS_HEADER.rstrip("\n").split(",")
        owner = 0
        for row in rows:
            assert int(row["owner_before"]) == owner
            if row["decision"] == "move":
                owner = int(row["dest"])
            else:
                assert row["dest"] == ""

    def test_invalid_x_s_names_the_key(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "run.json", base_run_doc(workload={"x_s": 1.3}))
        assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "x_s" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "run.json", base_run_doc(typo_key=1))
        assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "typo_key" in capsys.readouterr().err

    def test_unknown_nested_key_rejected(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "run.json", base_run_doc(policy={"name": "threshold", "t": 3, "window": 5}))
        assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "window" in capsys.readouterr().err

    @pytest.mark.parametrize("decisions", ["same.csv", "./same.csv"])
    def test_output_names_must_differ(self, tmp_path, capsys, decisions):
        doc = base_run_doc(output={"metrics": "same.csv", "decisions": decisions})
        cfg = write_json(tmp_path / "run.json", doc)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out"), "--log-decisions"]) == 2
        assert "config.output" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"num_steps": 0}, "config.num_steps"),
            ({"fragments": {"count": 1, "size": 0.0}}, "config.fragments"),
            ({"fragments": {"count": 2, "sizes": [1.0, -2.0]}, "initial_owners": 0}, "config.fragments"),
            ({"per_hop_latency": 0}, "config.per_hop_latency"),
            ({"designated": 5}, "config.designated"),
            ({"designated": -1}, "config.designated"),
            ({"initial_owners": 7}, "config.initial_owners"),
            ({"initial_owners": [0, 1]}, "config.initial_owners"),
            ({"workload": {"probs": [[0.2] * 5, [0.2] * 5]}}, "config.workload.probs"),
            ({"workload": {"probs": [[0.25] * 4]}}, "config.workload.probs"),
        ],
        ids=[
            "no-steps", "zero-size", "negative-size", "zero-latency", "designated-high", "designated-negative",
            "owner-out-of-range", "owner-count", "probs-rows", "probs-width",
        ],
    )
    def test_run_shape_error_names_its_key(self, tmp_path, capsys, overrides, key):
        cfg = write_json(tmp_path / "run.json", base_run_doc(**overrides))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "workload",
        [
            {"x_s": 0.3, "hot": 9},
            {"x_s": 0.3, "oscillation": {"site_a": -1, "site_b": 1, "period": 3}},
            {"x_s": 0.3, "oscillation": {"site_a": 0, "site_b": 1, "period": 0}},
            {"x_s": 0.3, "oscillation": {"site_a": 0, "site_b": 1, "period": 10**30}},
            {"probs": [[1.0, 0.0, 0.0, 0.0, 0.0]], "active": [1]},
            {"x_s": 10**400},
        ],
        ids=[
            "hot-out-of-range", "oscillation-site", "oscillation-period", "oscillation-period-beyond-int64", "zero-mass",
            "x_s-beyond-a-float",
        ],
    )
    def test_workload_rule_error_names_the_block(self, tmp_path, capsys, workload):
        cfg = write_json(tmp_path / "run.json", base_run_doc(workload=workload))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "config.workload" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "probs",
        [[[True, False, False, False, False]], [1.0, 0.0, 0.0, 0.0, False], [["0.2"] * 5]],
        ids=["bool-rows", "bool-row", "string"],
    )
    def test_probs_entry_must_be_a_number(self, tmp_path, capsys, probs):
        cfg = write_json(tmp_path / "run.json", base_run_doc(workload={"probs": probs}))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "config.workload.probs: must be a number" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_null_output_name_is_a_config_error(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "run.json", base_run_doc(output={"metrics": None}))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "config.output.metrics" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides",
        [
            {"topology": {"n": 2, "links": [[0, 1, math.nan]]}, "workload": {"x_s": 0.5}},
            {"workload": {"probs": [math.nan, 0.25, 0.25, 0.25, 0.25]}},
            {"fragments": {"count": 1, "size": math.nan}, "migration_blocking": True},
            {"per_hop_latency": math.nan},
            {"per_hop_latency": math.inf},
            {"workload": {"x_s": 0.28, "rate": -math.inf}},
        ],
        ids=["nan-weight", "nan-probs", "nan-size-blocking", "nan-latency", "infinite-latency", "minus-infinity"],
    )
    def test_non_finite_config_number_is_not_json(self, tmp_path, capsys, overrides):
        cfg = write_json(tmp_path / "run.json", base_run_doc(**overrides))  # json.dumps writes NaN and Infinity
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "not valid JSON" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_finite_topology_weight_is_not_json(self, tmp_path, capsys):
        write_json(tmp_path / "topo.json", {"n": 2, "links": [[0, 1, math.inf]]})
        cfg = write_json(tmp_path / "run.json", base_run_doc(topology="topo.json", workload={"x_s": 0.5}))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        assert "not valid JSON" in capsys.readouterr().err

    def test_config_that_is_not_utf8_is_not_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b'\xff\xfe{"n": 2}')
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "not valid JSON" in err and "internal error" not in err

    def test_topology_that_is_not_utf8_is_not_json(self, tmp_path, capsys):
        (tmp_path / "topo.json").write_bytes(b'\xff\xfe{"n": 2, "links": [[0, 1]]}')
        cfg = write_json(tmp_path / "run.json", base_run_doc(topology="topo.json", workload={"x_s": 0.5}))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert "not valid JSON" in err and "internal error" not in err
        assert not (tmp_path / "out").exists()

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path)]) == 3

    def test_missing_topology_file(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "run.json", base_run_doc(topology="nowhere.json"))
        assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 3

    def test_loose_inline_topology_is_an_io_error(self, tmp_path, capsys):
        topology = {"n": 3.7, "links": [[0, 1.9, 1], ["1", 2, 1]], "extra": 5}
        cfg = write_json(tmp_path / "run.json", base_run_doc(topology=topology))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        assert "topology" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_malformed_config_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2

    def test_sweep_block_rejected_by_run(self, tmp_path, capsys):
        doc = base_run_doc()
        doc["sweep"] = {"axis": "x_s", "values": [0.1]}
        cfg = write_json(tmp_path / "run.json", doc)
        assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_no_accesses_sampled_is_a_config_error(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "run.json", base_run_doc(num_steps=1, workload={"x_s": 0.28, "rate": 1e-9}))
        for extra in ([], ["--log-decisions"]):
            assert main(["run", "--config", cfg, "--out", str(tmp_path / "out"), *extra]) == 2
            err = capsys.readouterr().err
            assert "num_steps" in err and "rate" in err
            assert list((tmp_path / "out").glob("decisions*.csv")) == []  # no partial log is left behind


class TestSeedPrecedence:
    def run_and_read_seed(self, tmp_path, args=(), out="out"):
        cfg = write_json(tmp_path / "run.json", base_run_doc(seed=1))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / out), *args]) == 0
        return read_rows(tmp_path / out / "metrics.csv")[0]

    def test_config_seed_is_the_default(self, tmp_path, monkeypatch):
        monkeypatch.delenv("FRAGSIM_SEED", raising=False)
        assert self.run_and_read_seed(tmp_path)["seed"] == "1"

    def test_env_beats_config(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FRAGSIM_SEED", "22")
        assert self.run_and_read_seed(tmp_path)["seed"] == "22"

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FRAGSIM_SEED", "22")
        assert self.run_and_read_seed(tmp_path, args=("--seed-override", "333"))["seed"] == "333"

    def test_same_seed_same_results_across_sources(self, tmp_path, monkeypatch):
        monkeypatch.delenv("FRAGSIM_SEED", raising=False)
        via_flag = self.run_and_read_seed(tmp_path, args=("--seed-override", "5"), out="a")
        monkeypatch.setenv("FRAGSIM_SEED", "5")
        via_env = self.run_and_read_seed(tmp_path, out="b")
        assert via_flag == via_env

    def test_unparseable_env_seed(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("FRAGSIM_SEED", "not-a-number")
        cfg = write_json(tmp_path / "run.json", base_run_doc())
        assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "FRAGSIM_SEED" in capsys.readouterr().err


class TestSweepCommand:
    def sweep_doc(self, **overrides):
        doc = base_run_doc(num_steps=1500)
        doc["sweep"] = {"axis": "x_s", "values": [0.2, 0.6], "replications": 2}
        doc.update(overrides)
        return doc

    def test_rows_and_means(self, tmp_path):
        cfg = write_json(tmp_path / "sweep.json", self.sweep_doc())
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "sweep.csv")
        assert list(rows[0].keys()) == SWEEP_HEADER
        assert len(rows) == 4
        assert [r["axis_value"] for r in rows] == ["0.2", "0.2", "0.6", "0.6"]
        assert [r["replication"] for r in rows] == ["0", "1", "0", "1"]
        assert [r["seed"] for r in rows] == ["1", "2", "1", "2"]
        for pair in (rows[0:2], rows[2:4]):
            assert pair[0]["mean_o_s_hat"] == pair[1]["mean_o_s_hat"]
            mean = (float(pair[0]["o_s_hat"]) + float(pair[1]["o_s_hat"])) / 2
            assert float(pair[0]["mean_o_s_hat"]) == pytest.approx(mean, abs=1e-15)

    def test_cell_reproducible_as_standalone_run(self, tmp_path):
        cfg = write_json(tmp_path / "sweep.json", self.sweep_doc())
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        cell = read_rows(tmp_path / "sweep.csv")[3]  # x_s = 0.6, replication 1
        run_doc = self.sweep_doc()
        del run_doc["sweep"]
        run_doc["workload"]["x_s"] = 0.6
        run_cfg = write_json(tmp_path / "cell.json", run_doc)
        assert main(["run", "--config", run_cfg, "--out", str(tmp_path), "--seed-override", cell["seed"]]) == 0
        standalone = read_rows(tmp_path / "metrics.csv")[0]
        for col in ("o_s_hat", "migrations", "response_cost", "avg_move_time"):
            assert standalone[col] == cell[col], col

    def test_missing_sweep_block(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "sweep.json", base_run_doc())
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "sweep" in capsys.readouterr().err

    def test_empty_values_rejected(self, tmp_path, capsys):
        doc = self.sweep_doc()
        doc["sweep"]["values"] = []
        cfg = write_json(tmp_path / "sweep.json", doc)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "values" in capsys.readouterr().err

    def test_repeated_values_rejected(self, tmp_path, capsys):
        doc = self.sweep_doc()
        doc["sweep"]["values"] = [0.2, 0.6, 0.2]
        cfg = write_json(tmp_path / "sweep.json", doc)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "config.sweep.values" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    def test_unknown_axis_rejected(self, tmp_path, capsys):
        doc = self.sweep_doc()
        doc["sweep"]["axis"] = "weather"
        cfg = write_json(tmp_path / "sweep.json", doc)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "axis" in capsys.readouterr().err

    @pytest.mark.parametrize("shape", [None, True, 3, 2.5, "x", []])
    @pytest.mark.parametrize(
        "axis, value, block",
        [("fragment_size", 2.0, "fragments"), ("rate", 0.5, "workload"), ("active_count", 2, "workload")],
    )
    def test_axis_block_must_be_an_object(self, tmp_path, capsys, axis, value, block, shape):
        doc = self.sweep_doc()
        doc["sweep"] = {"axis": axis, "values": [value]}
        doc[block] = shape
        cfg = write_json(tmp_path / "sweep.json", doc)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert f"error: config.{block}: must be an object" in capsys.readouterr().err

    @pytest.mark.parametrize("count", [6, 10**30])
    def test_active_count_beyond_the_sites(self, tmp_path, capsys, count):
        # rejected before an active list of that length is built
        doc = self.sweep_doc()
        doc["sweep"] = {"axis": "active_count", "values": [2, count]}
        cfg = write_json(tmp_path / "sweep.json", doc)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"error: config.sweep.values: active_count {count} exceeds the topology's 5 sites" in err
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("axis, value", [("rate", 0.5), ("active_count", 2)])
    def test_missing_workload_is_named(self, tmp_path, capsys, axis, value):
        doc = self.sweep_doc()
        doc["sweep"] = {"axis": axis, "values": [value]}
        del doc["workload"]
        cfg = write_json(tmp_path / "sweep.json", doc)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: config: missing required key 'workload'\n"

    @pytest.mark.parametrize("axis, values", [("t", list(range(10))), ("active_count", [1, 2, 3, 4, 5])])
    def test_topology_is_built_once(self, tmp_path, monkeypatch, axis, values):
        built = []
        real_build = fragsim.topology.build_topology

        def counted_build(n, links):
            built.append(n)
            return real_build(n, links)

        monkeypatch.setattr(fragsim.topology, "build_topology", counted_build)
        doc = base_run_doc(num_steps=10)
        doc["sweep"] = {"axis": axis, "values": values, "replications": 3}
        sweep = resolve_sweep(doc, tmp_path)
        setups = [setup for _, group in sweep.groups for setup in group]
        assert len(setups) == 3 * len(values)
        assert built == [5]
        assert all(setup.sim.topology is setups[0].sim.topology for setup in setups)

    def test_resolved_state_is_bounded_before_any_cell_resolves(self, tmp_path, monkeypatch):
        # 2 values x 3 replications x 4 fragments x 5 sites = 120 probability entries
        doc = base_run_doc(num_steps=10, fragments={"count": 4})
        doc["sweep"] = {"axis": "t", "values": [0, 1], "replications": 3}
        monkeypatch.setattr(fragsim.config, "MAX_SWEEP_ENTRIES", 119, raising=False)
        with pytest.raises(ConfigError, match=r"^config\.sweep: 6 cells of 4 fragments on 5 sites hold 120"):
            resolve_sweep(doc, tmp_path)
        monkeypatch.setattr(fragsim.config, "MAX_SWEEP_ENTRIES", 120)
        assert len(resolve_sweep(doc, tmp_path).groups) == 2

    def test_t_axis_on_threshold_policy(self, tmp_path):
        doc = base_run_doc(num_steps=1000)
        doc["sweep"] = {"axis": "t", "values": [0, 5]}
        cfg = write_json(tmp_path / "sweep.json", doc)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "sweep.csv")
        assert [r["t"] for r in rows] == ["0", "5"]

    def test_no_accesses_sampled_is_a_config_error(self, tmp_path, capsys):
        doc = self.sweep_doc(num_steps=1)
        doc["workload"]["rate"] = 1e-9
        cfg = write_json(tmp_path / "sweep.json", doc)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "num_steps" in err and "rate" in err

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_json(tmp_path / "sweep.json", self.sweep_doc())
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "sweep.csv").read_bytes() == (tmp_path / "b" / "sweep.csv").read_bytes()


class TestOracleCommand:
    def test_t_zero_equals_x_s(self, tmp_path):
        assert main(["oracle", "--n", "5", "--x-s", "0.12,0.2,0.28", "--t", "0", "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "oracle.csv")
        assert list(rows[0].keys()) == ORACLE_HEADER
        for row in rows:
            assert float(row["o_s"]) == pytest.approx(float(row["x_s"]), abs=1e-10)
            assert row["source"] == "lumped-chain"

    def test_grid_shape(self, tmp_path):
        assert main(["oracle", "--n", "5", "--x-s", "0.2,0.28", "--t", "0,3,10", "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "oracle.csv")
        assert len(rows) == 6
        assert [(r["x_s"], r["t"]) for r in rows[:3]] == [("0.2", "0"), ("0.2", "3"), ("0.2", "10")]

    def test_invalid_probability(self, tmp_path, capsys):
        assert main(["oracle", "--n", "5", "--x-s", "1.4", "--t", "0", "--out", str(tmp_path)]) == 2
        assert "x_s" in capsys.readouterr().err

    def test_unparseable_list(self, tmp_path, capsys):
        assert main(["oracle", "--n", "5", "--x-s", "0.2,zebra", "--t", "0", "--out", str(tmp_path)]) == 2

    def test_negative_threshold(self, tmp_path, capsys):
        assert main(["oracle", "--n", "5", "--x-s", "0.2", "--t", "-1", "--out", str(tmp_path)]) == 2
        assert "--t" in capsys.readouterr().err

    def test_too_few_sites_names_the_cell(self, tmp_path, capsys):
        assert main(["oracle", "--n", "1", "--x-s", "0.2", "--t", "0", "--out", str(tmp_path)]) == 2
        assert "--n 1 --x-s 0.2 --t 0" in capsys.readouterr().err

    def test_oversized_threshold(self, tmp_path, capsys):
        # the dense lumped chain would need hundreds of GiB at this t
        assert main(["oracle", "--n", "3", "--x-s", "0.2", "--t", "100000", "--out", str(tmp_path)]) == 2
        assert "--t" in capsys.readouterr().err
        assert not (tmp_path / "oracle.csv").exists()


class TestCompareCommand:
    def osc_doc(self):
        return {
            "topology": reference_topology_dict(),
            "workload": {
                "x_s": 0.8,
                "hot": 6,
                "oscillation": {"site_a": 6, "site_b": 7, "period": 50},
            },
            "initial_owners": 0,
            "num_steps": 30_000,
            "seed": 1,
        }

    def test_fna_migrates_less_under_oscillation(self, tmp_path):
        cfg = write_json(tmp_path / "cmp.json", self.osc_doc())
        assert main(["compare", "--config", cfg, "--policies", "nna,fna", "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "compare.csv")
        assert list(rows[0].keys()) == COMPARE_HEADER
        by_policy = {r["policy"]: r for r in rows}
        assert int(by_policy["fna"]["migrations"]) < int(by_policy["nna"]["migrations"])
        assert by_policy["fna"]["seed"] == by_policy["nna"]["seed"]

    def test_threshold_variants_distinguished(self, tmp_path):
        doc = base_run_doc(num_steps=100_000, workload={"x_s": 0.2})
        del doc["policy"]
        cfg = write_json(tmp_path / "cmp.json", doc)
        assert main(["compare", "--config", cfg, "--policies", "threshold:3,threshold:10", "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "compare.csv")
        assert [r["policy"] for r in rows] == ["threshold:3", "threshold:10"]
        # uniform workload: residency at the designated site stays near
        # 1/n whatever the threshold
        for row in rows:
            assert float(row["o_s_hat"]) == pytest.approx(0.2, abs=0.02)

    def test_policy_block_optional_for_compare(self, tmp_path):
        doc = self.osc_doc()
        cfg = write_json(tmp_path / "cmp.json", doc)
        assert main(["compare", "--config", cfg, "--policies", "nna,fna", "--out", str(tmp_path)]) == 0

    def test_single_policy_rejected(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cmp.json", self.osc_doc())
        assert main(["compare", "--config", cfg, "--policies", "nna", "--out", str(tmp_path)]) == 2

    def test_bad_token_rejected(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cmp.json", self.osc_doc())
        assert main(["compare", "--config", cfg, "--policies", "nna,coinflip", "--out", str(tmp_path)]) == 2
        assert "coinflip" in capsys.readouterr().err

    @pytest.mark.parametrize("policies", ["threshold:-1,nna", "nna:threshold:-2,nna", "optimal,threshold:-1"])
    def test_negative_threshold_token(self, tmp_path, capsys, policies):
        # every token is parsed before the first simulation, so nothing is written
        cfg = write_json(tmp_path / "cmp.json", self.osc_doc())
        out = tmp_path / "out"
        assert main(["compare", "--config", cfg, "--policies", policies, "--out", str(out), "--log-decisions"]) == 2
        assert "--policies" in capsys.readouterr().err
        assert not out.exists()

    def test_no_accesses_sampled_is_a_config_error(self, tmp_path, capsys):
        doc = self.osc_doc()
        doc["num_steps"] = 1
        doc["workload"]["rate"] = 1e-9
        cfg = write_json(tmp_path / "cmp.json", doc)
        for extra in ([], ["--log-decisions"]):
            assert main(["compare", "--config", cfg, "--policies", "nna,fna", "--out", str(tmp_path / "out"), *extra]) == 2
            err = capsys.readouterr().err
            assert "num_steps" in err and "rate" in err
            assert list((tmp_path / "out").glob("decisions*.csv")) == []  # no partial log is left behind

    def test_zero_mass_on_active_sites_writes_nothing(self, tmp_path, capsys):
        # all mass is on the one active site until the oscillation swaps it away
        doc = self.osc_doc()
        doc["workload"] = {
            "probs": [[0.0] * 6 + [1.0, 0.0, 0.0]],
            "active": [6],
            "oscillation": {"site_a": 6, "site_b": 7, "period": 50},
        }
        cfg = write_json(tmp_path / "cmp.json", doc)
        out = tmp_path / "out"
        assert main(["compare", "--config", cfg, "--policies", "nna,fna", "--out", str(out), "--log-decisions"]) == 2
        assert "config.workload" in capsys.readouterr().err
        assert not out.exists()

    def test_per_policy_decision_logs(self, tmp_path):
        doc = self.osc_doc()
        doc["num_steps"] = 2000
        cfg = write_json(tmp_path / "cmp.json", doc)
        assert main([
            "compare", "--config", cfg, "--policies", "nna,threshold:3",
            "--out", str(tmp_path), "--log-decisions",
        ]) == 0
        assert (tmp_path / "decisions_nna.csv").exists()
        assert (tmp_path / "decisions_threshold_3.csv").exists()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the cell pool needs fork")
class TestCellPool:
    """sweep and compare fan their cells out over the usable CPUs; the bytes and the failures stay serial."""

    def cpus(self, monkeypatch, cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)

    def run_both_commands(self, tmp_path, out):
        sweep = TestSweepCommand().sweep_doc()
        compare = TestCompareCommand().osc_doc()
        compare["num_steps"] = 2000
        assert main(["sweep", "--config", write_json(tmp_path / "sweep.json", sweep), "--out", str(out)]) == 0
        assert main([
            "compare", "--config", write_json(tmp_path / "cmp.json", compare),
            "--policies", "optimal,nna,fna", "--out", str(out), "--log-decisions",
        ]) == 0
        return {path.name: path.read_bytes() for path in out.iterdir()}

    def test_serial_and_pooled_outputs_are_byte_identical(self, tmp_path, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was built for one usable CPU")

        self.cpus(monkeypatch, 1)
        with monkeypatch.context() as patch:
            patch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
            serial = self.run_both_commands(tmp_path, tmp_path / "serial")

        pools = []

        class CountedPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                pools.append(max_workers)
                super().__init__(max_workers, **kwargs)

        self.cpus(monkeypatch, 2)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
        pooled = self.run_both_commands(tmp_path, tmp_path / "pooled")
        assert pools == [4, 3]  # one worker per task: the sweep's 4 tasks, compare's 3 cells
        assert sorted(serial) == ["compare.csv", "decisions_fna.csv", "decisions_nna.csv", "decisions_optimal.csv", "sweep.csv"]
        assert pooled == serial

    def test_compare_starts_every_cell_at_once_on_two_cpus(self, tmp_path, monkeypatch):
        # Each cell waits until all three have started before it simulates:
        # with fewer workers than cells the waits would time out.
        doc = TestCompareCommand().osc_doc()
        doc["num_steps"] = 2000
        cfg = write_json(tmp_path / "cmp.json", doc)
        command = ["compare", "--config", cfg, "--policies", "optimal,nna,fna", "--log-decisions", "--out"]
        self.cpus(monkeypatch, 1)
        assert main(command + [str(tmp_path / "serial")]) == 0
        real_run_group = fragsim.cli.run_group
        starts, seen = tmp_path / "starts", tmp_path / "seen"
        starts.touch()

        def gathered_run_group(sims, writes):
            with open(starts, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            deadline = time.monotonic() + 5
            while len(started := starts.read_text().splitlines()) < 3 and time.monotonic() < deadline:
                time.sleep(0.01)
            with open(seen, "a") as fh:
                fh.write(f"{len(started)}\n")
            return real_run_group(sims, writes)

        self.cpus(monkeypatch, 2)
        monkeypatch.setattr(fragsim.cli, "run_group", gathered_run_group)
        assert main(command + [str(tmp_path / "pooled")]) == 0
        pids = starts.read_text().splitlines()
        assert len(set(pids)) == 3 and str(os.getpid()) not in pids
        assert seen.read_text().splitlines() == ["3"] * 3, "every cell saw all three started before it ran"
        serial = {path.name: path.read_bytes() for path in (tmp_path / "serial").iterdir()}
        assert {path.name: path.read_bytes() for path in (tmp_path / "pooled").iterdir()} == serial
        assert len(serial) == 4

    @pytest.mark.parametrize(
        "policies, slow_later_cell, shared_task",
        [
            ("optimal,nna,fna", False, None),
            ("optimal,nna,fna,threshold:3,threshold:5", True, None),
            ("optimal,nna,optimal", True, None),  # the repeated cell runs once
            ("optimal,nna,fna," + ",".join(f"threshold:{t}" for t in range(9)), False, "optimal,nna,fna"),
        ],
        ids=[
            "later-cell-done",
            "later-cells-running-and-queued",
            "later-cell-rewriting-an-earlier-log",
            "failing-cell-mid-task",
        ],
    )
    def test_first_failing_cell_leaves_what_the_serial_loop_leaves(
        self, tmp_path, monkeypatch, capsys, policies, slow_later_cell, shared_task
    ):
        doc = TestCompareCommand().osc_doc()
        doc["num_steps"] = 2000
        cfg = write_json(tmp_path / "cmp.json", doc)
        assert main(["compare", "--config", cfg, "--policies", "optimal,nna", "--out", str(tmp_path / "ok"), "--log-decisions"]) == 0
        capsys.readouterr()
        real_run_group = fragsim.cli.run_group
        runs = []  # forked workers inherit the patch, and each counts its own cells
        tasks = tmp_path / "tasks"  # one line per shared run, from every process

        def flaky_run_group(sims, writes):
            names = [sim.policy.name for sim in sims]
            with open(tasks, "a") as fh:
                fh.write(",".join(names) + "\n")
            runs.extend(names)
            if "nna" in names:
                time.sleep(0.3)
                raise RuntimeError("nna cell failed")
            if not (slow_later_cell and len(runs) > 1):
                return real_run_group(sims, writes)
            # A worker's later cells come after nna in config order: they
            # are still writing, one line in, when nna fails.
            return real_run_group(sims, [self.slowly(write) for write in writes])

        self.cpus(monkeypatch, 2)
        monkeypatch.setattr(fragsim.cli, "run_group", flaky_run_group)
        out = tmp_path / "out"
        assert main(["compare", "--config", cfg, "--policies", policies, "--out", str(out), "--log-decisions"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal error: nna cell failed\n"
        assert sorted(path.name for path in out.iterdir()) == ["decisions_optimal.csv"]
        assert (out / "decisions_optimal.csv").read_bytes() == (tmp_path / "ok" / "decisions_optimal.csv").read_bytes()
        if shared_task is not None:
            # nna shared a run with an earlier and a later cell, and was then run alone
            assert shared_task in tasks.read_text().splitlines()

    @staticmethod
    def slowly(write):
        lines = []

        def write_slowly(line):
            write(line)
            lines.append(line)
            if len(lines) == 1:
                time.sleep(0.6)

        return write_slowly

    def count_streams(self, monkeypatch, tally):
        """Count the event streams built from here on, in this process and in forked workers."""
        tally.touch()

        class CountedStream(fragsim.engine.EventStream):
            def __init__(self, spec):
                with open(tally, "a") as fh:
                    fh.write(f"{spec.seed}\n")
                super().__init__(spec)

        monkeypatch.setattr(fragsim.engine, "EventStream", CountedStream)
        return lambda: len(tally.read_text().splitlines())

    def test_sweep_draws_one_stream_per_task(self, tmp_path, monkeypatch):
        # 10 t values x 3 seeds: one group of 10 cells per seed, split in
        # two on 2 CPUs (two tasks per CPU at least) and whole on one
        doc = base_run_doc(num_steps=500)
        doc["sweep"] = {"axis": "t", "values": list(range(10)), "replications": 3}
        cfg = write_json(tmp_path / "sweep.json", doc)
        outputs = {}
        for cpus, streams in ((1, 3), (2, 6)):
            self.cpus(monkeypatch, cpus)
            count = self.count_streams(monkeypatch, tmp_path / f"streams{cpus}")
            assert main(["sweep", "--config", cfg, "--out", str(tmp_path / str(cpus))]) == 0
            assert count() == streams
            outputs[cpus] = (tmp_path / str(cpus) / "sweep.csv").read_bytes()
        assert outputs[2] == outputs[1]
        assert len(outputs[1].splitlines()) == 31

    @pytest.mark.parametrize("policies, streams", [("optimal,nna,fna", 3), ("optimal,nna,optimal", 2)])
    def test_compare_draws_one_stream_per_distinct_cell_on_two_cpus(self, tmp_path, monkeypatch, policies, streams):
        doc = TestCompareCommand().osc_doc()
        doc["num_steps"] = 2000
        cfg = write_json(tmp_path / "cmp.json", doc)
        self.cpus(monkeypatch, 2)
        count = self.count_streams(monkeypatch, tmp_path / "streams")
        out = tmp_path / "out"
        assert main(["compare", "--config", cfg, "--policies", policies, "--out", str(out), "--log-decisions"]) == 0
        assert count() == streams
        rows = read_rows(out / "compare.csv")
        assert [row["policy"] for row in rows] == policies.split(",")
        if policies.endswith(",optimal"):
            assert rows[2] == rows[0]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_first_failing_cell_across_interleaved_groups(self, tmp_path, monkeypatch, capsys, cpus):
        # Replication r of each t value is a cell of seed r's group, so the
        # groups interleave in config order: (t0, r0), (t0, r1), (t1, r0), ...
        # Cell 2 fails in the first group and cell 1, the serial loop's
        # first failure, in the second.
        doc = base_run_doc(num_steps=200)
        doc["sweep"] = {"axis": "t", "values": [0, 1], "replications": 2}
        cfg = write_json(tmp_path / "sweep.json", doc)
        real_run_group = fragsim.cli.run_group

        def flaky_run_group(sims, writes):
            for sim in sims:
                if (sim.policy.t, sim.workload.seed) in ((1, 1), (0, 2)):
                    raise RuntimeError(f"cell t={sim.policy.t} seed={sim.workload.seed} failed")
            return real_run_group(sims, writes)

        self.cpus(monkeypatch, cpus)
        monkeypatch.setattr(fragsim.cli, "run_group", flaky_run_group)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "internal error: cell t=0 seed=2 failed\n"
        assert not (tmp_path / "out").exists()

    def test_killed_worker_fails_the_command(self, tmp_path):
        # A worker killed outright cannot report back; the command must
        # still end, and leave no log of the killed cell or those after it.
        doc = TestCompareCommand().osc_doc()
        doc["num_steps"] = 2000
        cfg = write_json(tmp_path / "cmp.json", doc)
        script = (
            "import os, signal, sys, time\n"
            "import fragsim.cli as cli\n"
            "real_run_group = cli.run_group\n"
            "def run_group(sims, writes):\n"
            "    if any(sim.policy.name == 'nna' for sim in sims):\n"
            "        time.sleep(0.3)\n"
            "        os.kill(os.getpid(), signal.SIGKILL)\n"
            "    return real_run_group(sims, writes)\n"
            "cli.run_group = run_group\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "os.cpu_count = lambda: 2\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        src = os.path.dirname(os.path.dirname(fragsim.cli.__file__))
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-c", script, "compare", "--config", cfg, "--policies", "optimal,nna,fna",
             "--out", str(out), "--log-decisions"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("internal error:")
        assert sorted(path.name for path in out.iterdir()) == ["decisions_optimal.csv"]


def test_only_the_exit_code_errors_are_defined():
    # main maps ConfigError to exit 2 and TopologyError to exit 3; any other
    # error class would slip past that map as an internal error
    defined = set()
    for info in pkgutil.iter_modules(fragsim.__path__, "fragsim."):
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if isinstance(obj, type) and issubclass(obj, BaseException) and obj.__module__ == info.name:
                defined.add(obj.__name__)
    assert defined == {"ConfigError", "TopologyError"}


class TestFixturesCommand:
    def test_writes_reference_topology_and_configs(self, tmp_path):
        assert main(["fixtures", "--out", str(tmp_path)]) == 0
        fig3 = json.loads((tmp_path / "fig3.json").read_text())
        assert fig3 == reference_topology_dict()
        committed = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "fixtures", "fig3.json")
        assert (tmp_path / "fig3.json").read_bytes() == open(committed, "rb").read()
        assert (tmp_path / "walkthrough.json").exists()
        assert (tmp_path / "oscillation_compare.json").exists()

    def test_walkthrough_config_runs_and_reaches_g(self, tmp_path):
        assert main(["fixtures", "--out", str(tmp_path)]) == 0
        assert main([
            "run", "--config", str(tmp_path / "walkthrough.json"),
            "--out", str(tmp_path / "out"), "--log-decisions",
        ]) == 0
        rows = read_rows(tmp_path / "out" / "walkthrough_decisions.csv")
        moves = [(int(r["owner_before"]), int(r["dest"])) for r in rows if r["decision"] == "move"]
        # A -> C -> B -> G, one hop at a time
        assert moves[:3] == [(0, 2), (2, 1), (1, 6)]

    def test_bundled_sweeps_are_valid_configs(self, tmp_path):
        assert main(["fixtures", "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "residency_vs_xs_t3.json").read_text())
        doc["num_steps"] = 200  # keep the schema, shrink the work
        doc["sweep"]["values"] = [0.2]
        doc["sweep"]["replications"] = 1
        cfg = write_json(tmp_path / "small.json", doc)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
