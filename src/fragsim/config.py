"""Strict JSON configuration schema for runs, sweeps and comparisons.

Unknown keys are rejected rather than ignored, and every validation
message names the offending key, so typos fail loudly instead of
silently running a different experiment.

A run document looks like::

    {
      "topology": "fig3.json",            # path (relative to the config) or inline {"n":..,"links":..}
      "fragments": {"count": 1, "size": 1.0},
      "initial_owners": 0,                 # site id, or one per fragment
      "policy": {"name": "threshold", "t": 3},
      "workload": {"x_s": 0.2, "hot": 0, "rate": 1.0},
      "num_steps": 100000,
      "seed": 42,
      "designated": 0,
      "per_hop_latency": 1.0,
      "migration_blocking": false,
      "output": {"metrics": "metrics.csv", "decisions": "decisions.csv"}
    }

The workload is either the two-level form above (``x_s`` plus optional
``hot``) or an explicit ``"probs"`` matrix (one row per fragment), plus
optional ``active`` and ``oscillation`` blocks. A sweep document is a run
document with an extra ``"sweep"`` block naming the axis, its values and
the number of replications; replication ``r`` runs with seed ``seed + r``.

There is exactly one seed knob. Precedence, strongest first:
``--seed-override``, the ``FRAGSIM_SEED`` environment variable, the
config's top-level ``seed``, default 0.
"""

from __future__ import annotations

import copy
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .engine import SimConfig
from .policies import FnaParams, PolicySpec
from .topology import Topology, load_topology, topology_from_dict
from .workload import Oscillation, WorkloadSpec, symmetric_spec

import numpy as np

SWEEP_AXES = ("x_s", "t", "fragment_size", "rate", "active_count")


class ConfigError(ValueError):
    pass


def load_config(path) -> dict:
    """Read a JSON config document. I/O errors propagate as OSError."""
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return doc


@dataclass
class RunSetup:
    """A fully resolved run: the engine config plus reporting labels."""

    sim: SimConfig
    seed: int
    policy_label: str
    x_s: Optional[float]
    t: Optional[int]
    metrics_name: str = "metrics.csv"
    decisions_name: str = "decisions.csv"
    record_decisions: bool = False  # stream the decision log to ``decisions_name``


@dataclass
class SweepSetup:
    axis: str
    values: list
    replications: int
    cells: list  # of (axis_value, replication, RunSetup)
    metrics_name: str = "sweep.csv"


def resolve_run(
    doc: dict,
    base_dir,
    seed_override: Optional[int] = None,
    record_decisions: bool = False,
    policy_override: Optional[PolicySpec] = None,
) -> RunSetup:
    ctx = "config"
    _check_keys(
        doc,
        ctx,
        required=("topology", "workload", "num_steps") + (() if policy_override else ("policy",)),
        optional=("policy", "fragments", "initial_owners", "seed", "designated", "per_hop_latency", "migration_blocking", "output", "sweep"),
    )
    if "sweep" in doc:
        raise ConfigError("config: 'sweep' block present, use the sweep command")

    topo = _resolve_topology(doc["topology"], base_dir)
    n = topo.n

    frag_doc = doc.get("fragments", {"count": 1, "size": 1.0})
    sizes = _resolve_sizes(frag_doc)
    count = len(sizes)

    owners = _resolve_owners(doc.get("initial_owners", 0), count, n)

    seed = seed_override if seed_override is not None else _int_key(doc, ctx, "seed", default=0)

    policy_spec = policy_override if policy_override is not None else _resolve_policy(doc["policy"])
    workload, x_s_label, hot = _resolve_workload(doc["workload"], count, n, seed)

    designated = _int_key(doc, ctx, "designated", default=hot, lo=0, hi=n - 1)
    per_hop_latency = _num_key(doc, ctx, "per_hop_latency", default=1.0)
    if per_hop_latency <= 0:
        raise ConfigError(f"config.per_hop_latency: must be positive, got {per_hop_latency}")
    blocking = _bool_key(doc, ctx, "migration_blocking", default=False)

    out_doc = doc.get("output", {})
    if not isinstance(out_doc, dict):
        raise ConfigError("config.output: must be an object")
    _check_keys(out_doc, "config.output", required=(), optional=("metrics", "decisions"))
    metrics_name = _str_key(out_doc, "config.output", "metrics", default="metrics.csv")
    decisions_name = _str_key(out_doc, "config.output", "decisions", default="decisions.csv")
    if os.path.normpath(metrics_name) == os.path.normpath(decisions_name):
        raise ConfigError(f"config.output: metrics and decisions name the same file {metrics_name!r}")

    num_steps = _int_key(doc, ctx, "num_steps", lo=1)

    sim = SimConfig(
        topology=topo,
        sizes=sizes,
        initial_owners=owners,
        policy=policy_spec,
        workload=workload,
        num_steps=num_steps,
        designated=designated,
        per_hop_latency=per_hop_latency,
        migration_blocking=blocking,
    )
    try:
        sim.validate()
    except ValueError as exc:
        raise ConfigError(f"config: {exc}") from None

    t_label = policy_spec.t if (policy_spec.name == "threshold" or (policy_spec.name == "nna" and policy_spec.trigger == "threshold")) else None
    return RunSetup(
        sim=sim,
        seed=seed,
        policy_label=policy_spec.name,
        x_s=x_s_label,
        t=t_label,
        metrics_name=metrics_name,
        decisions_name=decisions_name,
        record_decisions=record_decisions,
    )


def resolve_sweep(doc: dict, base_dir, seed_override: Optional[int] = None) -> SweepSetup:
    if "sweep" not in doc:
        raise ConfigError("config: missing required key 'sweep'")
    sweep_doc = doc["sweep"]
    if not isinstance(sweep_doc, dict):
        raise ConfigError("config.sweep: must be an object")
    _check_keys(sweep_doc, "config.sweep", required=("axis", "values"), optional=("replications",))
    axis = _str_key(sweep_doc, "config.sweep", "axis")
    if axis not in SWEEP_AXES:
        raise ConfigError(f"config.sweep.axis: unknown axis {axis!r}, expected one of {', '.join(SWEEP_AXES)}")
    values = sweep_doc["values"]
    if not isinstance(values, list) or not values:
        raise ConfigError("config.sweep.values: must be a non-empty list")
    replications = _int_key(sweep_doc, "config.sweep", "replications", default=1, lo=1)

    base = {k: v for k, v in doc.items() if k != "sweep"}
    base_seed = seed_override if seed_override is not None else _int_key(base, "config", "seed", default=0)

    out_doc = base.get("output", {})
    metrics_name = "sweep.csv"
    if isinstance(out_doc, dict) and isinstance(out_doc.get("metrics"), str):
        metrics_name = out_doc["metrics"]

    cells = []
    for value in values:
        varied = _apply_axis(base, axis, value)
        for rep in range(replications):
            setup = resolve_run(varied, base_dir, seed_override=base_seed + rep)
            cells.append((value, rep, setup))
    return SweepSetup(axis=axis, values=list(values), replications=replications, cells=cells, metrics_name=metrics_name)


def parse_policy_token(token: str) -> PolicySpec:
    """Parse a compare-command policy token.

    Accepted forms: ``optimal``, ``threshold:<t>``, ``nna``,
    ``nna:dominance``, ``nna:threshold:<t>``, ``fna``.
    """
    parts = token.split(":")
    name = parts[0]
    try:
        if name == "optimal" and len(parts) == 1:
            return PolicySpec("optimal")
        if name == "threshold" and len(parts) == 2:
            return PolicySpec("threshold", t=_token_t(parts[1]))
        if name == "nna":
            if len(parts) == 1 or (len(parts) == 2 and parts[1] == "dominance"):
                return PolicySpec("nna")
            if len(parts) == 3 and parts[1] == "threshold":
                return PolicySpec("nna", trigger="threshold", t=_token_t(parts[2]))
        if name == "fna" and len(parts) == 1:
            return PolicySpec("fna")
    except ValueError as exc:
        raise ConfigError(f"--policies: bad token {token!r} ({exc})") from None
    raise ConfigError(f"--policies: bad token {token!r}")


def _token_t(text: str) -> int:
    t = int(text)
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    return t


# ---------------------------------------------------------------------------
# Block resolvers


def _resolve_topology(block, base_dir) -> Topology:
    if isinstance(block, str):
        return load_topology(Path(base_dir) / block)
    if isinstance(block, dict):
        return topology_from_dict(block)
    raise ConfigError("config.topology: must be a file path or an inline object")


def _resolve_sizes(block) -> list:
    ctx = "config.fragments"
    if not isinstance(block, dict):
        raise ConfigError(f"{ctx}: must be an object")
    _check_keys(block, ctx, required=("count",), optional=("size", "sizes"))
    count = _int_key(block, ctx, "count", lo=1)
    if "sizes" in block:
        if "size" in block:
            raise ConfigError(f"{ctx}: give either 'size' or 'sizes', not both")
        sizes = block["sizes"]
        if not isinstance(sizes, list) or len(sizes) != count:
            raise ConfigError(f"{ctx}.sizes: must be a list of length {count}")
        sizes = [_as_num(s, f"{ctx}.sizes") for s in sizes]
    else:
        sizes = [_num_key(block, ctx, "size", default=1.0)] * count
    for f, size in enumerate(sizes):
        if size <= 0:
            raise ConfigError(f"{ctx}: fragment {f}: size must be positive, got {size}")
    return sizes


def _resolve_owners(block, count: int, n: int) -> list:
    ctx = "config.initial_owners"
    if isinstance(block, bool):
        raise ConfigError(f"{ctx}: must be a site id or a list of site ids")
    if isinstance(block, int):
        owners = [block] * count
    elif isinstance(block, list):
        owners = block
    else:
        raise ConfigError(f"{ctx}: must be a site id or a list of site ids")
    if len(owners) != count:
        raise ConfigError(f"{ctx}: expected {count} entries, got {len(owners)}")
    for o in owners:
        if not isinstance(o, int) or isinstance(o, bool) or not (0 <= o < n):
            raise ConfigError(f"{ctx}: owner {o!r} is not a site in 0..{n - 1}")
    return list(owners)


def _resolve_policy(block) -> PolicySpec:
    ctx = "config.policy"
    if not isinstance(block, dict):
        raise ConfigError(f"{ctx}: must be an object")
    name = _str_key(block, ctx, "name", default=None)
    if name is None:
        raise ConfigError(f"{ctx}: missing required key 'name'")
    if name == "optimal":
        _check_keys(block, ctx, required=("name",), optional=("counter_cap",))
        return PolicySpec("optimal", counter_cap=_opt_int_key(block, ctx, "counter_cap", lo=1))
    if name == "threshold":
        _check_keys(block, ctx, required=("name", "t"), optional=())
        return PolicySpec("threshold", t=_int_key(block, ctx, "t", lo=0))
    if name == "nna":
        _check_keys(block, ctx, required=("name",), optional=("trigger", "t", "counter_cap"))
        trigger = _str_key(block, ctx, "trigger", default="dominance")
        if trigger not in ("dominance", "threshold"):
            raise ConfigError(f"{ctx}.trigger: must be 'dominance' or 'threshold', got {trigger!r}")
        t = _opt_int_key(block, ctx, "t", lo=0)
        if trigger == "threshold" and t is None:
            raise ConfigError(f"{ctx}.t: required when trigger is 'threshold'")
        return PolicySpec("nna", trigger=trigger, t=t, counter_cap=_opt_int_key(block, ctx, "counter_cap", lo=1))
    if name == "fna":
        _check_keys(block, ctx, required=("name",), optional=("window", "decay", "history", "inhibition_cutoff", "min_gap"))
        try:
            params = FnaParams(
                window=_int_key(block, ctx, "window", default=20, lo=1),
                decay=_num_key(block, ctx, "decay", default=0.95),
                history=_int_key(block, ctx, "history", default=6, lo=1),
                inhibition_cutoff=_num_key(block, ctx, "inhibition_cutoff", default=0.5),
                min_gap=_num_key(block, ctx, "min_gap", default=0.05),
            )
        except ValueError as exc:
            raise ConfigError(f"{ctx}: {exc}") from None
        return PolicySpec("fna", fna=params)
    raise ConfigError(f"{ctx}.name: unknown policy {name!r}")


def _resolve_workload(block, count: int, n: int, seed: int):
    ctx = "config.workload"
    if not isinstance(block, dict):
        raise ConfigError(f"{ctx}: must be an object")
    _check_keys(block, ctx, required=(), optional=("x_s", "hot", "probs", "rate", "active", "oscillation"))
    has_xs = "x_s" in block
    has_probs = "probs" in block
    if has_xs == has_probs:
        raise ConfigError(f"{ctx}: give exactly one of 'x_s' or 'probs'")

    rate = _num_key(block, ctx, "rate", default=1.0)

    active = None
    if "active" in block:
        raw = block["active"]
        if not isinstance(raw, list) or not all(isinstance(s, int) and not isinstance(s, bool) for s in raw):
            raise ConfigError(f"{ctx}.active: must be a list of site ids")
        active = tuple(raw)

    oscillation = None
    if "oscillation" in block:
        osc = block["oscillation"]
        if not isinstance(osc, dict):
            raise ConfigError(f"{ctx}.oscillation: must be an object")
        _check_keys(osc, f"{ctx}.oscillation", required=("site_a", "site_b", "period"), optional=())
        octx = f"{ctx}.oscillation"
        oscillation = Oscillation(
            site_a=_int_key(osc, octx, "site_a", lo=0),
            site_b=_int_key(osc, octx, "site_b", lo=0),
            period=_int_key(osc, octx, "period", lo=1),
        )

    hot = 0
    x_s_label = None
    try:
        if has_xs:
            x_s_label = _num_key(block, ctx, "x_s")
            hot = _int_key(block, ctx, "hot", default=0, lo=0, hi=n - 1)
            probs = np.tile(symmetric_spec(n, x_s_label, hot), (count, 1))
        else:
            if "hot" in block:
                raise ConfigError(f"{ctx}.hot: only valid with the x_s form")
            raw = block["probs"]
            if not isinstance(raw, list):
                raise ConfigError(f"{ctx}.probs: must be a list of rows")
            try:
                probs = np.asarray(raw, dtype=float)
            except ValueError:
                raise ConfigError(f"{ctx}.probs: rows must be equal-length lists of numbers") from None
            if probs.ndim == 1:
                probs = np.tile(probs, (count, 1))
        spec = WorkloadSpec(probs, rate=rate, active=active, seed=seed, oscillation=oscillation)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{ctx}: {exc}") from None
    if spec.num_fragments != count:
        raise ConfigError(f"{ctx}.probs: {spec.num_fragments} rows for {count} fragments")
    if spec.num_sites != n:
        raise ConfigError(f"{ctx}.probs: rows have {spec.num_sites} sites, topology has {n}")
    return spec, x_s_label, hot


def _apply_axis(base: dict, axis: str, value) -> dict:
    doc = copy.deepcopy(base)
    if axis == "x_s":
        wl = doc.get("workload")
        if not isinstance(wl, dict) or "x_s" not in wl:
            raise ConfigError("config.sweep.axis: 'x_s' needs the workload x_s form")
        wl["x_s"] = value
    elif axis == "t":
        pol = doc.get("policy")
        if not isinstance(pol, dict) or pol.get("name") not in ("threshold", "nna"):
            raise ConfigError("config.sweep.axis: 't' needs a threshold or nna policy")
        pol["t"] = value
        if pol["name"] == "nna":
            pol["trigger"] = "threshold"
    elif axis == "fragment_size":
        frag = doc.setdefault("fragments", {"count": 1})
        frag.pop("sizes", None)
        frag["size"] = value
    elif axis == "rate":
        wl = doc.setdefault("workload", {})
        wl["rate"] = value
    elif axis == "active_count":
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise ConfigError(f"config.sweep.values: active_count values must be positive integers, got {value!r}")
        wl = doc.setdefault("workload", {})
        wl["active"] = list(range(value))
    return doc


# ---------------------------------------------------------------------------
# Small typed accessors; every message names the key


def _check_keys(obj: dict, ctx: str, required, optional) -> None:
    for key in obj:
        if key not in required and key not in optional:
            raise ConfigError(f"{ctx}: unknown key {key!r}")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{ctx}: missing required key {key!r}")


_MISSING = object()


def _int_key(obj: dict, ctx: str, key: str, default=_MISSING, lo=None, hi=None) -> int:
    value = obj.get(key, default)
    if value is _MISSING:
        raise ConfigError(f"{ctx}: missing required key {key!r}")
    if value is None or isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{ctx}.{key}: must be an integer, got {value!r}")
    if lo is not None and value < lo:
        raise ConfigError(f"{ctx}.{key}: must be >= {lo}, got {value}")
    if hi is not None and value > hi:
        raise ConfigError(f"{ctx}.{key}: must be <= {hi}, got {value}")
    return value


def _opt_int_key(obj: dict, ctx: str, key: str, lo=None):
    if key not in obj or obj[key] is None:
        return None
    return _int_key(obj, ctx, key, lo=lo)


def _num_key(obj: dict, ctx: str, key: str, default=_MISSING) -> float:
    value = obj.get(key, default)
    if value is _MISSING:
        raise ConfigError(f"{ctx}: missing required key {key!r}")
    return _as_num(value, f"{ctx}.{key}")


def _as_num(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: must be a number, got {value!r}")
    return float(value)


def _bool_key(obj: dict, ctx: str, key: str, default=False) -> bool:
    value = obj.get(key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"{ctx}.{key}: must be true or false, got {value!r}")
    return value


def _str_key(obj: dict, ctx: str, key: str, default=_MISSING):
    value = obj.get(key, default)
    if value is _MISSING:
        raise ConfigError(f"{ctx}: missing required key {key!r}")
    if value is not None and not isinstance(value, str):
        raise ConfigError(f"{ctx}.{key}: must be a string, got {value!r}")
    return value
