"""fragsim benchmark: simulation sweeps, a logged policy comparison and an oracle grid.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep_threshold --seed 1 --seconds 15 --trace 0

One caller runs one workload process at a time, in a closed loop: the next
repetition starts when the previous one has exited. ``--trace 0`` measures
the end-to-end metrics and ``--trace 1`` the per-layer ones; both check the
outputs. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md in
this directory for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference"
sys.path.insert(0, str(BENCH))

from exact import CHECK_CELLS, closed_form_os, grid_cells, lumped_chain_os  # noqa: E402

WORKLOADS = ("sweep_threshold", "compare_logged", "oracle_grid")
DEFAULT_SEED = 1  # the seed of the bundled fixtures; the reference outputs are at this seed
SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
CHILD_TIMEOUT_S = 160
FLOAT_REL_TOL = 1e-12
ORACLE_ABS_TOL = 1e-9

SWEEP_CONFIG = "residency_vs_t_xs028.json"
SWEEP_CSV = "residency_vs_t_xs028.csv"
COMPARE_CONFIG = "compare_logged.json"
COMPARE_POLICIES = ("optimal", "nna", "fna")
COMPARE_RATE = 0.5
COMPARE_STEPS = 20_000

SETUP_CODE = {
    "sweep_threshold": (
        "import sys, pathlib, fragsim\n"
        "from fragsim.config import load_config, resolve_sweep\n"
        "cfg = pathlib.Path(sys.argv[1])\n"
        "resolve_sweep(load_config(cfg), cfg.parent, seed_override=int(sys.argv[2]))\n"
    ),
    "compare_logged": (
        "import sys, pathlib, fragsim\n"
        "from fragsim.config import load_config, parse_policy_token, resolve_run\n"
        "cfg = pathlib.Path(sys.argv[1])\n"
        "doc = load_config(cfg)\n"
        "for token in sys.argv[3].split(','):\n"
        "    resolve_run(doc, cfg.parent, seed_override=int(sys.argv[2]), record_decisions=True,\n"
        "                policy_override=parse_policy_token(token))\n"
    ),
    "oracle_grid": "import fragsim\n",
}


class BenchError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Child processes


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("FRAGSIM_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list, log: Path) -> tuple:
    """Run one child to completion: (wall s, peak RSS MB, exit code)."""
    with open(log, "w") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=fh, stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def cli_argv(workload: str, fixtures: Path, out: Path, seed: int) -> list:
    if workload == "sweep_threshold":
        args = ["sweep", "--config", str(fixtures / SWEEP_CONFIG)]
    else:
        args = ["compare", "--config", str(fixtures / COMPARE_CONFIG), "--policies", ",".join(COMPARE_POLICIES), "--log-decisions"]
    return args + ["--out", str(out), "--seed-override", str(seed)]


def prepare_fixtures() -> Path:
    """Write the bundled configs with ``fragsim fixtures`` and derive compare_logged's."""
    fixtures = OUT / "fixtures"
    shutil.rmtree(fixtures, ignore_errors=True)
    fixtures.mkdir(parents=True)
    _, _, code = run_child([sys.executable, "-m", "fragsim.cli", "fixtures", "--out", str(fixtures)], OUT / "fixtures.log")
    if code != 0:
        raise BenchError(f"fragsim fixtures exited with {code}, see {OUT / 'fixtures.log'}")
    doc = json.loads((fixtures / "oscillation_compare.json").read_text())
    doc["workload"]["rate"] = COMPARE_RATE
    doc["num_steps"] = COMPARE_STEPS
    (fixtures / COMPARE_CONFIG).write_text(json.dumps(doc, indent=2) + "\n")
    return fixtures


def measure_setup(workload: str, args: list) -> float:
    """Median wall time of a fresh interpreter that imports fragsim and resolves the config."""
    argv = [sys.executable, "-c", SETUP_CODE[workload]] + args
    walls = []
    for _ in range(SETUP_SAMPLES):
        wall, _, code = run_child(argv, OUT / "setup.log")
        if code != 0:
            raise BenchError(f"set-up child exited with {code}, see {OUT / 'setup.log'}")
        walls.append(wall)
    return statistics.median(walls)


def import_breakdown() -> dict:
    """Median ``import fragsim`` and scipy cumulative import times from ``-X importtime``."""
    samples = {"import.fragsim_s": [], "import.scipy_s": []}
    for _ in range(IMPORTTIME_SAMPLES):
        _, _, code = run_child([sys.executable, "-X", "importtime", "-c", "import fragsim"], OUT / "importtime.log")
        if code != 0:
            raise BenchError(f"import fragsim failed, see {OUT / 'importtime.log'}")
        fragsim_us = scipy_us = 0
        # Children are printed before their parent, one level deeper; walk
        # backwards so that each module's parent has been seen already.
        stack = []  # (depth, name)
        for line in reversed((OUT / "importtime.log").read_text().splitlines()):
            if not line.startswith("import time:") or "|" not in line or "self [us]" in line:
                continue
            _, cumulative, name = line[len("import time:"):].split("|")
            depth = len(name) - len(name.lstrip())
            name = name.strip()
            while stack and stack[-1][0] >= depth:
                stack.pop()
            parent = stack[-1][1] if stack else ""
            stack.append((depth, name))
            if name == "fragsim":
                fragsim_us += int(cumulative)
            if name.split(".")[0] == "scipy" and parent.split(".")[0] != "scipy":
                scipy_us += int(cumulative)
        samples["import.fragsim_s"].append(fragsim_us / 1e6)
        samples["import.scipy_s"].append(scipy_us / 1e6)
    return {k: statistics.median(v) for k, v in samples.items()}


# ---------------------------------------------------------------------------
# Output checks for the simulation workloads


def read_csv(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def output_files(workload: str) -> list:
    if workload == "sweep_threshold":
        return [SWEEP_CSV]
    return ["compare.csv"] + [f"decisions_{p}.csv" for p in COMPARE_POLICIES]


def sha256_outputs(workload: str, out: Path) -> dict:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in output_files(workload)}


def _is_float(cell: str) -> bool:
    """True for a field that parses as a float but not as an integer."""
    if not cell or cell.isdigit() or (cell[0] == "-" and cell[1:].isdigit()):
        return False
    if cell[0].isalpha() and cell.lower() not in ("inf", "nan", "infinity"):
        return False
    try:
        float(cell)
    except ValueError:
        return False
    return True


def digest_outputs(workload: str, out: Path) -> dict:
    """Each output file's bytes digest, and its content split for a tolerant comparison.

    Integer, string and empty fields go into ``exact_sha256``; the fields
    that parse only as floats are kept in ``floats``, in order.
    """
    digests = {}
    for name in output_files(workload):
        path = out / name
        exact = hashlib.sha256()
        floats = []
        rows = read_csv(path)
        for row in rows:
            fields = []
            for cell in row:
                if _is_float(cell):
                    floats.append(float(cell))
                    cell = "<float>"
                fields.append(cell)
            exact.update("\x1f".join(fields).encode() + b"\x1e")
        digests[name] = {
            "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
            "rows": len(rows),
            "exact_sha256": exact.hexdigest(),
            "floats": floats,
        }
    return digests


def compare_to_reference(workload: str, out: Path) -> tuple:
    """(problems, byte-identical) against the reference outputs at the default seed."""
    reference = json.loads((REFERENCE / f"{workload}.json").read_text())
    digests = digest_outputs(workload, out)
    problems = []
    identical = True
    for name, ref in reference.items():
        got = digests.get(name)
        if got is None:
            problems.append(f"{name}: missing")
            identical = False
            continue
        identical &= got["sha256"] == ref["sha256"]
        if got["rows"] != ref["rows"] or got["exact_sha256"] != ref["exact_sha256"]:
            problems.append(f"{name}: integer or string fields differ from the reference")
        elif len(got["floats"]) != len(ref["floats"]):
            problems.append(f"{name}: {len(got['floats'])} float fields, reference has {len(ref['floats'])}")
        else:
            for i, (a, b) in enumerate(zip(got["floats"], ref["floats"])):
                if abs(a - b) > FLOAT_REL_TOL * max(abs(a), abs(b)):
                    problems.append(f"{name}: float field {i} is {a!r}, reference {b!r}")
                    break
    return problems, identical


def check_sweep(out: Path, seed: int, fixtures: Path) -> tuple:
    """Internal consistency of a sweep CSV; returns (problems, accesses, cells)."""
    doc = json.loads((fixtures / SWEEP_CONFIG).read_text())
    values, reps, steps = doc["sweep"]["values"], doc["sweep"]["replications"], doc["num_steps"]
    rows = read_csv(out / SWEEP_CSV)
    col = {h: i for i, h in enumerate(rows[0])}
    body = rows[1:]
    problems = []
    cells = [(int(r[col["axis_value"]]), int(r[col["replication"]])) for r in body]
    if cells != [(v, rep) for v in values for rep in range(reps)]:
        problems.append(f"{SWEEP_CSV}: cells are {cells}, expected every t value times {reps} replications")
    for r in body:
        rep = int(r[col["replication"]])
        if int(r[col["seed"]]) != seed + rep or int(r[col["num_steps"]]) != steps:
            problems.append(f"{SWEEP_CSV}: row {r[:3]} has seed {r[col['seed']]} and {r[col['num_steps']]} steps")
        if not 0.0 <= float(r[col["o_s_hat"]]) <= 1.0:
            problems.append(f"{SWEEP_CSV}: row {r[:3]} has o_s_hat {r[col['o_s_hat']]}")
    for v in values:
        group = [r for r in body if int(r[col["axis_value"]]) == v]
        for mean_col, col_name in (("mean_o_s_hat", "o_s_hat"), ("mean_migrations", "migrations"), ("mean_response_cost", "response_cost")):
            mean = sum(float(r[col[col_name]]) for r in group) / len(group)
            if any(float(r[col[mean_col]]) != mean for r in group):
                problems.append(f"{SWEEP_CSV}: {mean_col} at t={v} is not the mean of its replications")
    # one fragment at rate 1: exactly one access per step
    return problems, steps * len(body), len(body)


def check_compare(out: Path, seed: int, fixtures: Path) -> tuple:
    """compare.csv against each decision log; returns (problems, accesses, cells)."""
    doc = json.loads((fixtures / COMPARE_CONFIG).read_text())
    count = doc["fragments"]["count"]
    designated = doc["designated"]
    problems = []
    rows = read_csv(out / "compare.csv")
    col = {h: i for i, h in enumerate(rows[0])}
    body = rows[1:]
    if [r[col["policy"]] for r in body] != list(COMPARE_POLICIES):
        problems.append(f"compare.csv: policies {[r[0] for r in body]}, expected {list(COMPARE_POLICIES)}")
        return problems, 0, len(body)
    accesses = 0
    for r in body:
        name = f"decisions_{r[col['policy']]}.csv"
        if int(r[col["seed"]]) != seed or int(r[col["num_steps"]]) != COMPARE_STEPS:
            problems.append(f"compare.csv: {r[0]} ran seed {r[col['seed']]} for {r[col['num_steps']]} steps")
        owners = [doc["initial_owners"]] * count
        last = (-1, count)
        moves = resident = 0
        log = read_csv(out / name)
        for i, (step, frag, _requester, owner_before, decision, dest, _reason, _inhibition) in enumerate(log[1:]):
            step, frag, owner_before = int(step), int(frag), int(owner_before)
            if not (last < (step, frag) and step < COMPARE_STEPS and 0 <= frag < count):
                problems.append(f"{name} row {i}: access ({step}, {frag}) out of order or range")
                break
            last = (step, frag)
            if owner_before != owners[frag]:
                problems.append(f"{name} row {i}: owner_before {owner_before}, fragment {frag} was last placed at {owners[frag]}")
                break
            resident += owner_before == designated
            if decision == "move":
                if dest == "" or int(dest) == owner_before:
                    problems.append(f"{name} row {i}: move to {dest!r} from {owner_before}")
                    break
                owners[frag] = int(dest)
                moves += 1
            elif decision != "stay" or dest != "":
                problems.append(f"{name} row {i}: decision {decision!r} with dest {dest!r}")
                break
        rows_logged = len(log) - 1
        accesses += rows_logged
        if moves != int(r[col["migrations"]]):
            problems.append(f"{name}: {moves} moves logged, compare.csv reports {r[col['migrations']]} migrations")
        if rows_logged == 0 or resident / rows_logged != float(r[col["o_s_hat"]]):
            problems.append(f"{name}: {resident} of {rows_logged} logged accesses at the designated site, compare.csv reports o_s_hat {r[col['o_s_hat']]}")
    return problems, accesses, len(body)


CHECKS = {"sweep_threshold": check_sweep, "compare_logged": check_compare}


class Outcome:
    """Attempted and failed operations of one benchmark run, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, problems: list) -> bool:
        self.attempted += 1
        self.failed += bool(problems)
        self.problems.extend(problems)
        return not problems


# ---------------------------------------------------------------------------
# Simulation workloads


def sim_invocation(workload: str, fixtures: Path, seed: int, tag: str, traced: bool = False) -> dict:
    out = OUT / workload / tag
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    args = cli_argv(workload, fixtures, out, seed)
    stats = out.parent / f"{tag}.trace.json"
    if traced:
        argv = [sys.executable, str(BENCH / "traced.py"), str(stats), "cli"] + args
    else:
        argv = [sys.executable, "-m", "fragsim.cli"] + args
    wall, rss, code = run_child(argv, out.parent / f"{tag}.log")
    result = {"wall": wall, "rss": rss, "problems": [], "out": out}
    if code != 0:
        result["problems"].append(f"{workload} exited with {code}, see {out.parent / f'{tag}.log'}")
        return result
    try:
        result["digests"] = sha256_outputs(workload, out)
    except OSError as exc:
        result["problems"].append(f"{workload}: unreadable output ({exc})")
        return result
    result["bytes"] = sum(p.stat().st_size for p in out.iterdir())
    if traced:
        result["trace"] = json.loads(stats.read_text())
    return result


def same_outputs(a: dict, b: dict) -> list:
    if a.get("digests") != b.get("digests"):
        return ["outputs differ between runs of the same seed in one benchmark run"]
    return []


def full_checks(workload: str, fixtures: Path, seed: int, result: dict) -> list:
    """Consistency of one run's outputs, and at the default seed the reference."""
    if result["problems"]:
        return result["problems"]
    try:
        problems, result["accesses"], result["cells"] = CHECKS[workload](result["out"], seed, fixtures)
        if seed == DEFAULT_SEED:
            reference_problems, result["identical"] = compare_to_reference(workload, result["out"])
            problems += reference_problems
    except (IndexError, KeyError, ValueError) as exc:
        problems = [f"{workload}: malformed output ({exc!r})"]
    return problems


def run_sim(workload: str, seed: int, seconds: float, trace: bool, outcome: Outcome) -> tuple:
    fixtures = prepare_fixtures()
    identical = None
    if seed != DEFAULT_SEED:
        ref = sim_invocation(workload, fixtures, DEFAULT_SEED, "reference")
        outcome.record(full_checks(workload, fixtures, DEFAULT_SEED, ref))
        identical = ref.get("identical")
    if not trace:
        config = fixtures / (SWEEP_CONFIG if workload == "sweep_threshold" else COMPARE_CONFIG)
        setup_s = measure_setup(workload, [str(config), str(seed), ",".join(COMPARE_POLICIES)])
    first = None
    runs = []
    measured = 0.0
    while measured < seconds or not runs:
        rep = len(runs)
        for traced in (False, True) if trace else (False,):
            result = sim_invocation(workload, fixtures, seed, f"rep{rep}{'-traced' if traced else ''}", traced)
            measured += result["wall"]
            if first is None:
                first = result
                problems = full_checks(workload, fixtures, seed, result)
                if seed == DEFAULT_SEED:
                    identical = result.get("identical")
            else:
                problems = result["problems"] or same_outputs(first, result)
                result["accesses"], result["cells"] = first.get("accesses"), first.get("cells")
            if outcome.record(problems):
                runs.append(result)
        if not runs:
            break
    plain = [r for r in runs if "trace" not in r]
    traced = [r for r in runs if "trace" in r]
    if not plain or (trace and not traced):
        raise BenchError("no run of the workload succeeded:\n  " + "\n  ".join(outcome.problems))
    if not trace:
        work = [r["wall"] - setup_s for r in plain]
        return {
            "wall_s": statistics.median(r["wall"] for r in plain),
            "setup_s": setup_s,
            "cells_per_s": statistics.median(r["cells"] / w for r, w in zip(plain, work)),
            "peak_rss_mb": statistics.median(r["rss"] for r in plain),
        }, [
            ("accesses_per_s", statistics.median(r["accesses"] / w for r, w in zip(plain, work)), f"1/s, {plain[0]['accesses']} accesses a run"),
            ("run walls", [round(r["wall"], 3) for r in plain], "s, each metric is the median over these runs"),
            ("failed_share", outcome.failed / outcome.attempted, "ratio"),
        ]
    metrics, notes = per_layer_metrics(
        [r["trace"] for r in traced],
        accesses=plain[0]["accesses"],
        decision_rows=plain[0]["accesses"] if workload == "compare_logged" else 0,
        bytes_written=plain[0]["bytes"],
        identical=identical,
    )
    metrics["trace.overhead_s"] = trace_overhead(plain, traced)
    return metrics, notes


# ---------------------------------------------------------------------------
# Oracle grid workload


def exact_reference() -> tuple:
    """Exact o_s of every grid cell, after checking the closed form against a rational solve."""
    problems = [f"exact closed form disagrees with the rational chain solve at {c}" for c in CHECK_CELLS if closed_form_os(*c) != lumped_chain_os(*c)]
    return {tuple(c): closed_form_os(*c) for c in grid_cells(0)}, problems


def grid_invocation(seed: int, tag: str, traced: bool, exact: dict) -> dict:
    out = OUT / "oracle_grid"
    out.mkdir(parents=True, exist_ok=True)
    result_path = out / f"{tag}.json"
    result_path.unlink(missing_ok=True)
    stats = out / f"{tag}.trace.json"
    if traced:
        argv = [sys.executable, str(BENCH / "traced.py"), str(stats), "grid", str(seed), str(result_path)]
    else:
        argv = [sys.executable, str(BENCH / "grid.py"), "--seed", str(seed), "--out", str(result_path)]
    wall, rss, code = run_child(argv, out / f"{tag}.log")
    result = {"wall": wall, "rss": rss, "problems": [], "failed_cells": 0}
    if code != 0:
        result["problems"].append(f"oracle grid exited with {code}, see {out / f'{tag}.log'}")
        return result
    data = json.loads(result_path.read_text())
    values = {(n, x_s, t): o_s for n, x_s, t, o_s, _ in data["cells"]}
    if set(values) != set(exact):
        result["problems"].append(f"oracle grid solved {len(values)} cells, expected {len(exact)}")
        return result
    errors = {}
    for cell, o_s in values.items():
        errors[cell] = abs(Fraction(o_s) - exact[cell]) if math.isfinite(o_s) else Fraction(1)
    result.update(
        values=values,
        times_ms=[ns / 1e6 for *_, ns in data["cells"]],
        max_err=float(max(errors.values())),
        worst=max(errors, key=errors.get),
        failed_cells=sum(e > ORACLE_ABS_TOL for e in errors.values()),
    )
    if traced:
        result["trace"] = json.loads(stats.read_text())
    return result


def percentile(sorted_values: list, q: int) -> float:
    return statistics.quantiles(sorted_values, n=100, method="inclusive")[q - 1]


def run_grid(seed: int, seconds: float, trace: bool, outcome: Outcome) -> tuple:
    exact, problems = exact_reference()
    outcome.problems.extend(problems)
    if not trace:
        setup_s = measure_setup("oracle_grid", [])
    runs = []
    measured = 0.0
    first = None
    while measured < seconds or not runs:
        rep = len(runs)
        for traced in (False, True) if trace else (False,):
            result = grid_invocation(seed, f"pass{rep}{'-traced' if traced else ''}", traced, exact)
            measured += result["wall"]
            if not result["problems"]:
                if first is None:
                    first = result
                elif result["values"] != first["values"]:
                    result["problems"].append("o_s values differ between passes of the same grid")
            # each cell is one operation; a cell off the exact value by more than the tolerance fails
            outcome.attempted += len(exact)
            outcome.failed += len(exact) if result["problems"] else result["failed_cells"]
            outcome.problems.extend(result["problems"])
            if not result["problems"]:
                runs.append(result)
        if not runs:
            break
    plain = [r for r in runs if "trace" not in r]
    traced = [r for r in runs if "trace" in r]
    if not plain or (trace and not traced):
        raise BenchError("no pass of the oracle grid succeeded:\n  " + "\n  ".join(outcome.problems))
    times = sorted(t for r in plain for t in r["times_ms"])
    oracle = {
        "oracle.cell_ms_p50": statistics.median(times),
        "oracle.cell_ms_p99": percentile(times, 99),
        "oracle.max_abs_err": plain[0]["max_err"],
    }
    cells = len(exact)
    if not trace:
        work = [r["wall"] - setup_s for r in plain]
        return {
            "wall_s": statistics.median(r["wall"] for r in plain),
            "setup_s": setup_s,
            "cells_per_s": statistics.median(cells / w for w in work),
            "peak_rss_mb": statistics.median(r["rss"] for r in plain),
        }, [
            ("cell_ms_p50", oracle["oracle.cell_ms_p50"], f"ms, of {len(times)} cells"),
            ("cell_ms_p99", oracle["oracle.cell_ms_p99"], f"ms, of {len(times)} cells"),
            ("max_abs_err", oracle["oracle.max_abs_err"], f"abs, at (n, x_s, t) = {plain[0]['worst']}"),
            ("failed_share", outcome.failed / outcome.attempted, f"ratio, cells off by more than {ORACLE_ABS_TOL}"),
            ("pass walls", [round(r["wall"], 3) for r in plain], "s, each metric is the median over these passes"),
        ]
    metrics, notes = per_layer_metrics([r["trace"] for r in traced], accesses=0, decision_rows=0, bytes_written=0, identical=None)
    metrics.update(oracle)
    metrics["trace.overhead_s"] = trace_overhead(plain, traced)
    return metrics, notes


# ---------------------------------------------------------------------------
# Per-layer metrics from traced runs


def trace_overhead(plain: list, traced: list) -> float:
    """Median traced wall time, less the tracer's one-off calibration, minus median untraced wall time."""
    traced_walls = [r["wall"] - r["trace"]["calibration"]["duration_ns"] / 1e9 for r in traced]
    return statistics.median(traced_walls) - statistics.median(r["wall"] for r in plain)


def per_layer_metrics(traces: list, accesses: int, decision_rows: int, bytes_written: int, identical) -> tuple:
    """Median over traced runs of each layer metric, and notes naming absent layers.

    A layer that the workload does not use, or whose entry point no longer
    exists, reads 0.
    """

    def one(trace: dict) -> dict:
        layers = trace["layers"]

        def get(layer, key):
            return layers.get(layer, {}).get(key, 0)

        def per_call(layer, key="self_ns"):
            calls = get(layer, "calls")
            return get(layer, key) / calls if calls else 0.0

        top_config = sum(end - start for layer, start, end, parent in trace["spans"] if layer.startswith("config.") and not (parent or "").startswith("config."))
        m = {
            "workload.next_event.calls": get("workload.next_event", "calls"),
            "workload.next_event.ns": per_call("workload.next_event"),
            "workload.accesses_per_trial": per_call("workload.next_event", "outcomes"),
            "topology.next_hop.calls": get("topology.next_hop", "calls"),
            "allocation.apply_migration.calls": get("allocation.apply_migration", "calls"),
            "allocation.apply_migration.ns": per_call("allocation.apply_migration"),
            "engine.run.self_ns_per_access": get("engine.run", "self_ns") / accesses if accesses else 0.0,
            "engine.decision_rows": decision_rows,
            "cli.self_s": get("cli.main", "self_ns") / 1e9,
            "cli.bytes_written": bytes_written,
            "cli.outputs_identical": int(bool(identical)),
            "config.resolve_s": top_config / 1e9,
            "topology.build_s": get("topology.build", "total_ns") / 1e9,
            "oracle.threshold_stationary.us": per_call("oracle.threshold_stationary", "total_ns") / 1e3,
            "oracle.lstsq_calls": get("oracle.lstsq", "calls"),
            # from the untraced passes of oracle_grid, which fills them in
            "oracle.cell_ms_p50": 0.0,
            "oracle.cell_ms_p99": 0.0,
            "oracle.max_abs_err": 0.0,
        }
        for policy in ("threshold", "optimal", "nna", "fna"):
            layer = f"policies.{policy}"
            m[f"{layer}.calls"] = get(layer, "calls")
            m[f"{layer}.ns"] = per_call(layer)
            m[f"{layer}.move_ratio"] = per_call(layer, "outcomes")
        return m

    runs = [one(t) for t in traces]
    metrics = {k: statistics.median_low(r[k] for r in runs) for k in runs[0]}
    absent = sorted(set().union(*(t["absent"] for t in traces)))
    return metrics, [("absent layers", ", ".join(absent), "reported as 0")] if absent else []


# ---------------------------------------------------------------------------
# Entry point


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    outcome = Outcome()
    OUT.mkdir(parents=True, exist_ok=True)
    if workload == "oracle_grid":
        metrics, notes = run_grid(seed, seconds, trace, outcome)
    else:
        metrics, notes = run_sim(workload, seed, seconds, trace, outcome)
    if trace:
        metrics.update(import_breakdown())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = spec["per_layer" if trace else "end_to_end"]
    print(f"== {workload}  seed {seed}  {'traced' if trace else 'untraced'}")
    for m in names:
        print(f"   {m['name']:<36} {metrics[m['name']]!r:>24} {m['unit']}")
    for name, value, unit in notes:
        print(f"   {name:<36} {value!r:>24} {unit}")
    for problem in outcome.problems:
        print(f"   problem: {problem}", file=sys.stderr)
    correct = outcome.attempted > 0 and not any(outcome.problems)
    return {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in names},
    }


def write_reference() -> None:
    """Record this commit's outputs at the default seed as the reference."""
    OUT.mkdir(parents=True, exist_ok=True)
    REFERENCE.mkdir(exist_ok=True)
    fixtures = prepare_fixtures()
    for workload in CHECKS:
        result = sim_invocation(workload, fixtures, DEFAULT_SEED, "reference")
        if result["problems"]:
            raise BenchError("; ".join(result["problems"]))
        problems, _, _ = CHECKS[workload](result["out"], DEFAULT_SEED, fixtures)
        if problems:
            raise BenchError("; ".join(problems))
        (REFERENCE / f"{workload}.json").write_text(json.dumps(digest_outputs(workload, result["out"]), indent=1) + "\n")
        print(f"wrote {REFERENCE / f'{workload}.json'}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0, help="measured time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true", help="record the reference outputs and exit")
    args = parser.parse_args()
    if not (SRC / "fragsim" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no fragsim sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    try:
        if args.write_reference:
            write_reference()
            return 0
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        for workload in workloads:
            result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(result))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
