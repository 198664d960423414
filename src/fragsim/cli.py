"""Command-line front end.

Subcommands: ``run`` (one simulation), ``sweep`` (axis sweep with
replications), ``oracle`` (analytical steady state of the threshold
policy), ``compare`` (same workload and seed under several policies) and
``fixtures`` (write the bundled topology and example configs).

Exit codes: 0 success, 1 unexpected internal error, 2 invalid
configuration or parameters, 3 topology or file I/O problems.

CSV output is deterministic byte for byte: floats are written with
``repr``, which round-trips exactly, and rows follow the iteration order
of the config document.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from pathlib import Path

from .config import ConfigError, load_config, parse_policy_token, resolve_run, resolve_sweep
from .engine import run as run_sim
from .fixtures import write_fixtures
from .oracle import ChainParams, ParamsTooLargeError, threshold_stationary
from .topology import TopologyError
from .workload import EmptyActiveSetError, InvalidProbabilityError

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CONFIG = 2
EXIT_IO = 3

METRICS_HEADER = [
    "policy", "n", "x_s", "t", "seed", "num_steps",
    "o_s_hat", "migrations", "migration_hop_cost", "response_cost", "avg_move_time",
]
ORACLE_HEADER = ["n", "x_s", "t", "o_s", "source"]
SWEEP_HEADER = ["axis", "axis_value", "replication"] + METRICS_HEADER + [
    "mean_o_s_hat", "mean_migrations", "mean_response_cost", "mean_avg_move_time",
]
COMPARE_HEADER = [
    "policy", "n", "seed", "num_steps",
    "o_s_hat", "migrations", "migration_hop_cost", "response_cost", "avg_move_time",
]


def _write_csv(path: Path, header, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _metrics_row(setup, metrics):
    return [
        setup.sim.policy.name,
        setup.sim.topology.n,
        setup.x_s,
        setup.sim.policy.t,
        setup.sim.workload.seed,
        setup.sim.num_steps,
        metrics.o_s_hat,
        metrics.migrations,
        metrics.migration_hop_cost,
        metrics.response_cost,
        metrics.avg_move_time,
    ]


def _simulate(setup, log_path=None):
    """Run one resolved simulation, streaming its decision log to ``log_path`` if given.

    A run that samples no access is a config error. A run that fails
    leaves no partial decision log behind.
    """
    sim = setup.sim
    try:
        if log_path is None:
            metrics = run_sim(sim)
        else:
            log_path.parent.mkdir(parents=True, exist_ok=True)
            with open(log_path, "w", newline="") as fh:
                metrics = run_sim(sim, fh.write)
        if metrics.accesses_total == 0:
            raise ConfigError(
                f"config: no accesses were sampled in num_steps={sim.num_steps} at rate={sim.workload.rate}; "
                "raise num_steps or rate"
            )
    except BaseException:
        if log_path is not None:
            log_path.unlink(missing_ok=True)
        raise
    return metrics


def _effective_seed_override(args) -> int | None:
    if args.seed_override is not None:
        return args.seed_override
    env = os.environ.get("FRAGSIM_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"FRAGSIM_SEED: must be an integer, got {env!r}") from None
    return None


def _cmd_run(args) -> int:
    doc = load_config(args.config)
    setup = resolve_run(
        doc,
        Path(args.config).parent,
        seed_override=_effective_seed_override(args),
        record_decisions=args.log_decisions,
    )
    out = Path(args.out)
    decisions_path = out / setup.decisions_name if setup.record_decisions else None
    metrics = _simulate(setup, decisions_path)
    metrics_path = out / setup.metrics_name
    _write_csv(metrics_path, METRICS_HEADER, [_metrics_row(setup, metrics)])
    print(f"wrote {metrics_path}")
    if decisions_path is not None:
        print(f"wrote {decisions_path}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    doc = load_config(args.config)
    sweep = resolve_sweep(doc, Path(args.config).parent, seed_override=_effective_seed_override(args))
    rows = []
    for value, setups in sweep.groups:
        results = [(setup, _simulate(setup)) for setup in setups]
        k = len(results)
        mean_os = sum(m.o_s_hat for _, m in results) / k
        mean_migrations = sum(m.migrations for _, m in results) / k
        mean_response = sum(m.response_cost for _, m in results) / k
        mean_move_time = sum(m.avg_move_time for _, m in results) / k
        for rep, (setup, metrics) in enumerate(results):
            rows.append(
                [sweep.axis, value, rep]
                + _metrics_row(setup, metrics)
                + [mean_os, mean_migrations, mean_response, mean_move_time]
            )
    out_path = Path(args.out) / sweep.metrics_name
    _write_csv(out_path, SWEEP_HEADER, rows)
    print(f"wrote {out_path} ({len(rows)} rows)")
    return EXIT_OK


def _parse_float_list(text: str, what: str) -> list:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ConfigError(f"{what}: must be a comma-separated list of numbers, got {text!r}") from None


def _parse_int_list(text: str, what: str) -> list:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ConfigError(f"{what}: must be a comma-separated list of integers, got {text!r}") from None


def _cmd_oracle(args) -> int:
    xs_values = _parse_float_list(args.x_s, "--x-s")
    t_values = _parse_int_list(args.t, "--t")
    if not xs_values or not t_values:
        raise ConfigError("--x-s and --t must be non-empty")
    if min(t_values) < 0:
        raise ConfigError(f"--t: thresholds must be >= 0, got {args.t!r}")
    rows = []
    for x_s in xs_values:
        for t in t_values:
            try:
                result = threshold_stationary(ChainParams(n=args.n, x_s=x_s, t=t))
            except ParamsTooLargeError as exc:
                raise ConfigError(f"--t: {exc}") from None
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
    seed_override = _effective_seed_override(args)
    out = Path(args.out)
    rows = []
    for token, spec in zip(tokens, specs):
        setup = resolve_run(
            doc,
            Path(args.config).parent,
            seed_override=seed_override,
            record_decisions=args.log_decisions,
            policy_override=spec,
        )
        log_path = out / f"decisions_{token.replace(':', '_')}.csv" if setup.record_decisions else None
        metrics = _simulate(setup, log_path)
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

    def add_common(p, config=True):
        if config:
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
    except (ConfigError, InvalidProbabilityError, EmptyActiveSetError) as exc:
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
