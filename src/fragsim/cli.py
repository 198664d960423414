"""Command-line front end.

Subcommands: ``run`` (one simulation), ``sweep`` (axis sweep with
replications), ``oracle`` (analytical steady state of the threshold
policy), ``compare`` (same workload and seed under several policies) and
``fixtures`` (write the bundled topology and example configs).

Exit codes: 0 success, 1 unexpected internal error, 2 invalid
configuration or parameters, 3 topology or file I/O problems.

CSV output is deterministic byte for byte: floats are written with
``repr``, which round-trips exactly, and rows follow the iteration order
of the config document. That holds too where ``sweep`` and ``compare``
run the cells that differ only in policy on one shared event stream, and
run such groups of cells in forked children, up to two per usable CPU,
which hand their metrics back through a pipe while this process waits.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import math
import os
import pickle
import signal
import sys
from dataclasses import replace
from pathlib import Path
from typing import NoReturn

from .config import ConfigError, checked_seed, load_config, parse_policy_token, resolve_run, resolve_sweep
from .engine import run_group
from .fixtures import write_fixtures
from .oracle import ChainParams, threshold_stationary
from .topology import TopologyError

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CONFIG = 2
EXIT_IO = 3

METRIC_KEYS = ("o_s_hat", "migrations", "migration_hop_cost", "response_cost", "avg_move_time")  # SimMetrics attributes
MEAN_KEYS = ("o_s_hat", "migrations", "response_cost", "avg_move_time")  # a sweep row's per-value means
METRICS_HEADER = ["policy", "n", "x_s", "t", "seed", "num_steps", *METRIC_KEYS]
ORACLE_HEADER = ["n", "x_s", "t", "o_s", "source"]
SWEEP_HEADER = ["axis", "axis_value", "replication", *METRICS_HEADER, *(f"mean_{key}" for key in MEAN_KEYS)]
COMPARE_HEADER = ["policy", "n", "seed", "num_steps", *METRIC_KEYS]


def _write_csv(path: Path, header, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _metrics_row(setup, metrics):
    sim = setup.sim
    return [sim.policy.name, sim.topology.n, setup.x_s, sim.policy.t, sim.seed, sim.num_steps] + [
        getattr(metrics, key) for key in METRIC_KEYS
    ]


def _simulate(setups, log_paths) -> list:
    """Run cells that differ only in policy in one :func:`run_group`; their metrics in order.

    Cell ``i`` streams its decision log to ``log_paths[i]`` if that is not
    ``None``. A cell that samples no access is a config error. A failure
    leaves none of the cells' decision logs behind.
    """
    with contextlib.ExitStack() as logs:
        try:
            writes = []
            for path in log_paths:
                if path is None:
                    writes.append(None)
                else:
                    path.parent.mkdir(parents=True, exist_ok=True)
                    writes.append(logs.enter_context(open(path, "w", newline="")).write)
            all_metrics = run_group([setup.sim for setup in setups], writes)
            for setup, metrics in zip(setups, all_metrics):
                if metrics.accesses_total == 0:
                    sim = setup.sim
                    raise ConfigError(
                        f"config: no accesses were sampled in num_steps={sim.num_steps} at rate={sim.rate}; "
                        "raise num_steps or rate"
                    )
        except BaseException:
            logs.close()
            for path in log_paths:
                if path is not None:
                    path.unlink(missing_ok=True)
            raise
    return all_metrics


def _simulate_task(setups, log_paths) -> tuple:
    """:func:`_simulate` one task's cells; ``(metrics, error)``, never raising an ``Exception``.

    ``error`` is ``None``, or the exception of the first cell in order that
    fails alone, and ``metrics`` holds the cells before it. A shared run
    that fails is re-run one cell at a time to find that cell, since a
    shared run may meet a later cell's failure first; runs are
    deterministic, so this gives the serial loop's failure and logs.
    """
    try:
        return _simulate(setups, log_paths), None
    except Exception as exc:
        if len(setups) == 1:
            return [], exc
    done = []
    for setup, path in zip(setups, log_paths):
        try:
            done += _simulate([setup], [path])
        except Exception as exc:
            return done, exc
    return done, None


def _split(groups: list, cpus: int) -> list:
    """Split the groups into contiguous chunks, but only while there are fewer chunks than ``cpus``.

    Each group is cut into near-equal chunks of the largest size that
    gives ``cpus`` chunks in all, or one chunk per cell where the groups
    have fewer cells than that. A group left whole draws its stream once.
    The chunks come back ordered by their first cell.
    """
    size = max(map(len, groups))
    while size > 1 and sum(-(-len(group) // size) for group in groups) < cpus:
        size -= 1
    chunks = []
    for group in groups:
        k = -(-len(group) // size)
        chunks += [group[j * len(group) // k : (j + 1) * len(group) // k] for j in range(k)]
    return sorted(chunks)


def _simulate_all(setups, log_paths) -> list:
    """Metrics of each cell (``setups[i]``, ``log_paths[i]``), in config order.

    Equal cells (equal configs and log path, as a repeated ``compare``
    token gives) run once. Cells whose configs differ only in policy share
    one event stream: they are grouped by
    :meth:`~fragsim.engine.SimConfig.stream_key`, and a group is split into
    contiguous chunks, one task each, only while there are fewer tasks
    than usable CPUs. With more than one usable CPU and more than one task
    the tasks run in forked children (:func:`_run_forked`), up to two per
    CPU; otherwise one after another in this process. Either way a failure
    leaves what the serial loop leaves: the first failing cell in config
    order raises, and only the complete decision logs of the cells before
    it remain.
    """
    cells = {}  # (stream key, policy, log path) -> the config index of the cell's first occurrence
    of = [
        cells.setdefault((setup.sim.stream_key(), setup.sim.policy, path), i)
        for i, (setup, path) in enumerate(zip(setups, log_paths))
    ]
    groups = {}
    for (key, _, _), i in cells.items():
        groups.setdefault(key, []).append(i)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    tasks = _split(list(groups.values()), cpus)

    def run(task):
        return _simulate_task([setups[i] for i in task], [log_paths[i] for i in task])

    if cpus < 2 or len(tasks) < 2 or not hasattr(os, "fork"):
        outcomes = map(run, tasks)  # each runs when it is read
    else:
        outcomes = iter(_run_forked(tasks, run, min(len(tasks), 2 * cpus)))
    metrics = {}  # config index of a cell -> its metrics
    failed, error = len(setups), None  # the first failing cell known so far and its exception
    for task in tasks:  # ordered by first cell: once one starts after a known failure, all later ones do
        if task[0] > failed:
            break
        done, exc = next(outcomes)
        metrics.update(zip(task, done))
        if exc is not None and task[len(done)] < failed:
            failed, error = task[len(done)], exc
    if error is not None:
        # Every task has ended, so no cell is still writing a log removed here.
        for i in cells.values():
            if i >= failed and log_paths[i] is not None:
                log_paths[i].unlink(missing_ok=True)
        raise error
    return [metrics[i] for i in of]


def _run_forked(tasks: list, run, workers: int) -> list:
    """``run(task)`` of each task, ordered by first cell, from ``workers`` forked children.

    Child ``w`` runs ``tasks[w::workers]`` in order, skips those that start
    after its own first failure (their entries stay ``None``), writes its
    pickled list of outcomes to its own pipe and exits. This process only
    waits: it reads the pipes to the end in child order, which cannot
    deadlock as each child writes only to its own, and reaps each child.
    A child that dies, or whose outcomes cannot be pickled, leaves its pipe
    empty, and its first task fails at its first cell with a
    ``RuntimeError``; its later tasks start after that cell. On any
    exception here every child still running is killed and reaped.
    """
    outcomes = [None] * len(tasks)
    children = {}  # pid -> the read end of its pipe, for each child not yet reaped
    try:
        for w in range(workers):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:
                # the parent must be every pipe's only reader, so that once it is gone a write fails instead of blocking
                for fd in (read_end, *children.values()):
                    os.close(fd)
                _run_child(tasks[w::workers], run, write_end)
            os.close(write_end)
            children[pid] = read_end
        for w, pid in enumerate(list(children)):
            with open(children[pid], "rb", closefd=False) as pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            os.close(children.pop(pid))
            try:
                results = pickle.loads(data)
            except Exception:
                code = os.waitstatus_to_exitcode(status)
                results = [([], RuntimeError(f"a forked simulation process ended (exit code {code}) without its outcome"))]
            for k, outcome in enumerate(results):
                outcomes[w + k * workers] = outcome
    finally:  # children are left only if this process failed
        for pid, read_end in children.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(read_end)
    return outcomes


def _run_child(tasks: list, run, write_end: int) -> NoReturn:
    """A forked child's part of :func:`_run_forked`: run ``tasks``, write the pickled outcomes to ``write_end``, exit."""
    status = 1
    try:
        outcomes, failed = [], math.inf
        for task in tasks:
            if task[0] > failed:
                break
            done, exc = run(task)
            outcomes.append((done, exc))
            if exc is not None:
                failed = min(failed, task[len(done)])
        data = pickle.dumps(outcomes)
        with open(write_end, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)  # no exit handler, no flush of inherited buffers, no unwinding into the caller


def _effective_seed_override(args) -> int | None:
    if args.seed_override is not None:
        return checked_seed(args.seed_override, "--seed-override")
    env = os.environ.get("FRAGSIM_SEED")
    return None if env is None else checked_seed(env, "FRAGSIM_SEED")


def _cmd_run(args) -> int:
    doc = load_config(args.config)
    setup = resolve_run(doc, Path(args.config).parent, seed_override=_effective_seed_override(args))
    out = Path(args.out)
    decisions_path = out / setup.decisions_name if args.log_decisions else None
    (metrics,) = _simulate([setup], [decisions_path])
    metrics_path = out / setup.metrics_name
    _write_csv(metrics_path, METRICS_HEADER, [_metrics_row(setup, metrics)])
    print(f"wrote {metrics_path}")
    if decisions_path is not None:
        print(f"wrote {decisions_path}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    doc = load_config(args.config)
    sweep = resolve_sweep(doc, Path(args.config).parent, seed_override=_effective_seed_override(args))
    cells = [setup for _, setups in sweep.groups for setup in setups]
    all_metrics = iter(_simulate_all(cells, [None] * len(cells)))
    rows = []
    for value, setups in sweep.groups:
        results = [(setup, next(all_metrics)) for setup in setups]
        means = [sum(getattr(m, key) for _, m in results) / len(results) for key in MEAN_KEYS]
        for rep, (setup, metrics) in enumerate(results):
            rows.append([sweep.axis, value, rep] + _metrics_row(setup, metrics) + means)
    out_path = Path(args.out) / sweep.metrics_name
    _write_csv(out_path, SWEEP_HEADER, rows)
    print(f"wrote {out_path} ({len(rows)} rows)")
    return EXIT_OK


def _parse_list(text: str, what: str, kind) -> list:
    """Comma-separated ``float`` or ``int`` values; empty tokens are skipped."""
    try:
        return [kind(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        noun = "integers" if kind is int else "numbers"
        raise ConfigError(f"{what}: must be a comma-separated list of {noun}, got {text!r}") from None


def _cmd_oracle(args) -> int:
    xs_values = _parse_list(args.x_s, "--x-s", float)
    t_values = _parse_list(args.t, "--t", int)
    if not xs_values or not t_values:
        raise ConfigError("--x-s and --t must be non-empty")
    rows = []
    for x_s in xs_values:
        for t in t_values:
            try:
                result = threshold_stationary(ChainParams(n=args.n, x_s=x_s, t=t))
            except ValueError as exc:
                raise ConfigError(f"--n {args.n} --x-s {x_s} --t {t}: {exc}") from None
            rows.append([args.n, x_s, t, result.o_s, "lumped-chain"])
    out_path = Path(args.out) / "oracle.csv"
    _write_csv(out_path, ORACLE_HEADER, rows)
    print(f"wrote {out_path} ({len(rows)} rows)")
    return EXIT_OK


def _cmd_compare(args) -> int:
    tokens = [tok.strip() for tok in args.policies.split(",") if tok.strip()]
    if len(tokens) < 2:
        raise ConfigError("--policies: need at least two comma-separated policies")
    specs = [parse_policy_token(token) for token in tokens]  # reject a bad token before any simulation
    doc = load_config(args.config)
    setup = resolve_run(doc, Path(args.config).parent, _effective_seed_override(args), policy_override=specs[0])
    setups = [replace(setup, sim=replace(setup.sim, policy=spec)) for spec in specs]  # one stream for all
    out = Path(args.out)
    log_paths = [out / f"decisions_{token.replace(':', '_')}.csv" if args.log_decisions else None for token in tokens]
    rows = []
    for token, setup, log_path, metrics in zip(tokens, setups, log_paths, _simulate_all(setups, log_paths)):
        if log_path is not None:
            print(f"wrote {log_path}")
        named = dict(zip(METRICS_HEADER, _metrics_row(setup, metrics)), policy=token)
        rows.append([named[key] for key in COMPARE_HEADER])
    compare_path = out / "compare.csv"
    _write_csv(compare_path, COMPARE_HEADER, rows)
    print(f"wrote {compare_path}")
    return EXIT_OK


def _cmd_fixtures(args) -> int:
    written = write_fixtures(args.out)
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fragsim", description="Simulator and analysis tool for fragment allocation")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="path to a JSON config document")
        p.add_argument("--out", default=".", help="output directory (default: current directory)")
        p.add_argument("--seed-override", type=int, default=None, help="overrides FRAGSIM_SEED and the config seed")

    p_run = sub.add_parser("run", help="run one simulation")
    add_common(p_run)
    p_run.add_argument("--log-decisions", action="store_true", help="also write the per-access decision log")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep with replications")
    add_common(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_oracle = sub.add_parser("oracle", help="analytical steady-state residency of the threshold policy")
    p_oracle.add_argument("--n", type=int, required=True, help="number of sites")
    p_oracle.add_argument("--x-s", required=True, help="comma-separated hot-site access probabilities")
    p_oracle.add_argument("--t", required=True, help="comma-separated threshold values")
    p_oracle.add_argument("--out", default=".", help="output directory")
    p_oracle.set_defaults(func=_cmd_oracle)

    p_compare = sub.add_parser("compare", help="run the same workload and seed under several policies")
    add_common(p_compare)
    p_compare.add_argument("--policies", required=True, help="comma-separated list, e.g. nna,fna or threshold:3,threshold:10")
    p_compare.add_argument("--log-decisions", action="store_true", help="also write one decision log per policy")
    p_compare.set_defaults(func=_cmd_compare)

    p_fixtures = sub.add_parser("fixtures", help="write the bundled topology and example configs")
    p_fixtures.add_argument("--out", default=".", help="output directory")
    p_fixtures.set_defaults(func=_cmd_fixtures)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (TopologyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:  # pragma: no cover - safety net
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
