"""End-to-end CLI tests: exit codes, CSV schemas, determinism, seed plumbing."""

import csv
import json

import pytest

from fragsim.cli import (
    COMPARE_HEADER,
    METRICS_HEADER,
    ORACLE_HEADER,
    SWEEP_HEADER,
    main,
)
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


class TestFixturesCommand:
    def test_writes_reference_topology_and_configs(self, tmp_path):
        assert main(["fixtures", "--out", str(tmp_path)]) == 0
        fig3 = json.loads((tmp_path / "fig3.json").read_text())
        assert fig3 == reference_topology_dict()
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
