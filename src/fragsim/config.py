"""Strict JSON configuration schema for runs, sweeps and comparisons.

Unknown keys are rejected rather than ignored, and every validation
message names the offending key, so typos fail loudly instead of
silently running a different experiment.

This module reads JSON types only: which keys a block may hold, and
whether each value is an int, a number, a string or a list. Each rule
about the values has one home, whose ``ValueError`` is re-raised here as
a :class:`ConfigError` prefixed with the block's name:

* the run's shape (step count, fragment count and sizes, initial owners,
  designated site, per-hop latency, probability rows and width):
  :meth:`~fragsim.engine.SimConfig.validate`;
* probabilities, rate, active sites and zero mass on them in either
  oscillation phase: :class:`~fragsim.workload.WorkloadSpec`, with
  :func:`~fragsim.workload.symmetric_spec` for ``x_s`` and ``hot`` and
  :class:`~fragsim.workload.Oscillation` for its sites and period;
* policy parameters: :class:`~fragsim.policies.PolicySpec` and
  :class:`~fragsim.policies.FnaParams`;
* links, weights and the site count: :func:`~fragsim.topology.build_topology`,
  whose :class:`~fragsim.topology.TopologyError` is left as it is (exit 3).

Two bounds are kept here, because they must hold before anything is
built: ``fragments.count`` (``MAX_FRAGMENTS``) and a sweep's values
times replications (``MAX_SWEEP_CELLS``).

``NaN`` and ``Infinity`` are not JSON numbers and fail as invalid JSON.

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
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .engine import SimConfig
from .policies import FnaParams, PolicySpec
from .topology import Topology, load_topology, read_json_object, topology_from_dict
from .workload import Oscillation, WorkloadSpec, symmetric_spec

import numpy as np

SWEEP_AXES = ("x_s", "t", "fragment_size", "rate", "active_count")

# Checked before anything is built. MAX_FRAGMENTS with topology.MAX_SITES bounds
# the (fragments x sites) state of nna and fna at 500 000 entries, 4 MB an array;
# MAX_SWEEP_CELLS bounds the runs a sweep resolves before the first one starts.
MAX_FRAGMENTS = 1000
MAX_SWEEP_CELLS = 1000


class ConfigError(ValueError):
    pass


def load_config(path) -> dict:
    """Read a JSON config document. I/O errors propagate as OSError."""
    return read_json_object(path, ConfigError, "config")


@dataclass
class RunSetup:
    """A fully resolved run: the engine config plus reporting labels."""

    sim: SimConfig
    x_s: Optional[float]
    metrics_name: str = "metrics.csv"
    decisions_name: str = "decisions.csv"


@dataclass
class SweepSetup:
    axis: str
    groups: list  # of (axis_value, [RunSetup for each replication]), in config order
    metrics_name: str = "sweep.csv"


def resolve_run(
    doc: dict,
    base_dir,
    seed_override: Optional[int] = None,
    record_decisions: bool = False,  # ignored, as whether to log is the caller's choice; perfbench/run.py passes it
    policy_override: Optional[PolicySpec] = None,
    topology: Optional[Topology] = None,
) -> RunSetup:
    """Resolve a run document; ``topology``, if given, stands for the already resolved ``doc["topology"]``."""
    ctx = "config"
    _check_keys(
        doc,
        ctx,
        required=("topology", "workload", "num_steps") + (() if policy_override else ("policy",)),
        optional=("policy", "fragments", "initial_owners", "seed", "designated", "per_hop_latency", "migration_blocking", "output", "sweep"),
    )
    if "sweep" in doc:
        raise ConfigError("config: 'sweep' block present, use the sweep command")

    out_doc = doc.get("output", {})
    if not isinstance(out_doc, dict):
        raise ConfigError("config.output: must be an object")
    _check_keys(out_doc, "config.output", required=(), optional=("metrics", "decisions"))
    metrics_name = _key(out_doc, "config.output", "metrics", str, "metrics.csv")
    decisions_name = _key(out_doc, "config.output", "decisions", str, "decisions.csv")
    if os.path.normpath(metrics_name) == os.path.normpath(decisions_name):
        raise ConfigError(f"config.output: metrics and decisions name the same file {metrics_name!r}")

    topo = topology if topology is not None else _resolve_topology(doc["topology"], base_dir)
    sizes = _resolve_sizes(doc.get("fragments", {"count": 1, "size": 1.0}))
    seed = seed_override if seed_override is not None else _key(doc, ctx, "seed", int, 0)
    workload, x_s_label, hot = _resolve_workload(doc["workload"], len(sizes), topo.n, seed)
    sim = SimConfig(
        topology=topo,
        sizes=sizes,
        initial_owners=_resolve_owners(doc.get("initial_owners", 0), len(sizes)),
        policy=policy_override if policy_override is not None else _resolve_policy(doc["policy"]),
        workload=workload,
        num_steps=_key(doc, ctx, "num_steps", int),
        designated=_key(doc, ctx, "designated", int, hot),
        per_hop_latency=_key(doc, ctx, "per_hop_latency", float, 1.0),
        migration_blocking=_key(doc, ctx, "migration_blocking", bool, False),
    )
    try:
        sim.validate()
    except ValueError as exc:
        raise ConfigError(f"config.{exc}") from None

    return RunSetup(
        sim=sim,
        x_s=x_s_label,
        metrics_name=metrics_name,
        decisions_name=decisions_name,
    )


def resolve_sweep(doc: dict, base_dir, seed_override: Optional[int] = None) -> SweepSetup:
    if "sweep" not in doc:
        raise ConfigError("config: missing required key 'sweep'")
    sweep_doc = doc["sweep"]
    if not isinstance(sweep_doc, dict):
        raise ConfigError("config.sweep: must be an object")
    _check_keys(sweep_doc, "config.sweep", required=("axis", "values"), optional=("replications",))
    axis = _key(sweep_doc, "config.sweep", "axis", str)
    if axis not in SWEEP_AXES:
        raise ConfigError(f"config.sweep.axis: unknown axis {axis!r}, expected one of {', '.join(SWEEP_AXES)}")
    values = sweep_doc["values"]
    if not isinstance(values, list) or not values:
        raise ConfigError("config.sweep.values: must be a non-empty list")
    replications = _key(sweep_doc, "config.sweep", "replications", int, 1, lo=1)
    if len(values) * replications > MAX_SWEEP_CELLS:
        raise ConfigError(
            f"config.sweep: {len(values)} values times {replications} replications exceed {MAX_SWEEP_CELLS} cells"
        )
    repeated = [v for i, v in enumerate(values) if v in values[:i]]
    if repeated:
        raise ConfigError(f"config.sweep.values: {repeated[0]!r} appears more than once, values must be distinct")

    base = {k: v for k, v in doc.items() if k != "sweep"}
    base_seed = seed_override if seed_override is not None else _key(base, "config", "seed", int, 0)

    # No axis varies the topology: resolve it once and share it across the cells.
    topology = None
    if axis == "active_count":
        # bound each count by the site count before its active list is built
        _check_keys(base, "config", required=("topology",), optional=base)
        topology = _resolve_topology(base["topology"], base_dir)

    groups = []
    for value in values:
        varied = _apply_axis(base, axis, value, topology)
        setups = []
        for rep in range(replications):
            setups.append(resolve_run(varied, base_dir, seed_override=base_seed + rep, topology=topology))
            topology = setups[-1].sim.topology
        groups.append((value, setups))
    # resolve_run has checked the output block by now
    return SweepSetup(axis=axis, groups=groups, metrics_name=base.get("output", {}).get("metrics", "sweep.csv"))


def parse_policy_token(token: str) -> PolicySpec:
    """Parse a compare-command policy token, ``name[:trigger][:t]``.

    The token becomes the equivalent config ``policy`` block, so the
    accepted forms are ``optimal``, ``threshold:<t>``, ``nna``,
    ``nna:dominance``, ``nna:threshold:<t>`` and ``fna``.
    """
    name, *rest = token.split(":")
    block = {"name": name}
    if rest:
        try:
            block["t"] = int(rest[-1])
            rest.pop()
        except ValueError:
            pass
    if rest:
        block["trigger"] = rest.pop(0)
    if rest:
        raise ConfigError(f"--policies: bad token {token!r}")
    return _resolve_policy(block, f"--policies: bad token {token!r}")


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
    count = _key(block, ctx, "count", int, lo=1)
    if count > MAX_FRAGMENTS:
        raise ConfigError(f"{ctx}.count: at most {MAX_FRAGMENTS} fragments, got {count}")
    if "sizes" in block:
        if "size" in block:
            raise ConfigError(f"{ctx}: give either 'size' or 'sizes', not both")
        sizes = block["sizes"]
        if not isinstance(sizes, list) or len(sizes) != count:
            raise ConfigError(f"{ctx}.sizes: must be a list of length {count}")
        return [_entry(s, f"{ctx}.sizes", float) for s in sizes]
    return [_key(block, ctx, "size", float, 1.0)] * count


def _resolve_owners(block, count: int) -> list:
    owners = [block] * count if not isinstance(block, list) else list(block)
    if not all(isinstance(o, int) and not isinstance(o, bool) for o in owners):
        raise ConfigError(f"config.initial_owners: must be a site id or a list of site ids, got {block!r}")
    return owners


# The keys each policy's config block may carry besides ``name``, by kind;
# ``t`` and ``counter_cap`` may also be null. Only their JSON types are read
# here; PolicySpec and FnaParams check the values.
_POLICY_KEYS = {
    "optimal": {"counter_cap": int},
    "threshold": {"t": int},
    "nna": {"trigger": str, "t": int, "counter_cap": int},
    "fna": {"window": int, "decay": float, "history": int, "inhibition_cutoff": float, "min_gap": float},
}


def _resolve_policy(block, ctx: str = "config.policy") -> PolicySpec:
    if not isinstance(block, dict):
        raise ConfigError(f"{ctx}: must be an object")
    name = _key(block, ctx, "name", str)
    kinds = _POLICY_KEYS.get(name, {})
    _check_keys(block, ctx, required=("name",), optional=kinds)
    params = {
        key: None if value is None and key in ("t", "counter_cap") else _key(block, ctx, key, kinds[key])
        for key, value in block.items()
        if key != "name"
    }
    try:
        if name == "fna":
            return PolicySpec(name, fna=FnaParams(**params))
        return PolicySpec(name, **params)
    except ValueError as exc:
        raise ConfigError(f"{ctx}: {exc}") from None


def _resolve_workload(block, count: int, n: int, seed: int):
    ctx = "config.workload"
    if not isinstance(block, dict):
        raise ConfigError(f"{ctx}: must be an object")
    _check_keys(block, ctx, required=(), optional=("x_s", "hot", "probs", "rate", "active", "oscillation"))
    if ("x_s" in block) == ("probs" in block):
        raise ConfigError(f"{ctx}: give exactly one of 'x_s' or 'probs'")
    rate = _key(block, ctx, "rate", float, 1.0)

    active = None
    if "active" in block:
        raw = block["active"]
        if not isinstance(raw, list) or not all(isinstance(s, int) and not isinstance(s, bool) for s in raw):
            raise ConfigError(f"{ctx}.active: must be a list of site ids")
        active = tuple(raw)

    osc = None
    if "oscillation" in block:
        octx = f"{ctx}.oscillation"
        if not isinstance(block["oscillation"], dict):
            raise ConfigError(f"{octx}: must be an object")
        _check_keys(block["oscillation"], octx, required=("site_a", "site_b", "period"), optional=())
        osc = [_key(block["oscillation"], octx, key, int) for key in ("site_a", "site_b", "period")]

    x_s, hot = None, 0
    if "x_s" in block:
        x_s = _key(block, ctx, "x_s", float)
        hot = _key(block, ctx, "hot", int, 0)
    else:
        if "hot" in block:
            raise ConfigError(f"{ctx}.hot: only valid with the x_s form")
        if not isinstance(block["probs"], list):
            raise ConfigError(f"{ctx}.probs: must be a list of rows")
        for row in block["probs"]:
            for entry in row if isinstance(row, list) else [row]:
                _entry(entry, f"{ctx}.probs", float)
        try:
            probs = np.asarray(block["probs"], dtype=float)
        except ValueError:
            raise ConfigError(f"{ctx}.probs: rows must be equal-length lists of numbers") from None
        if probs.ndim == 1:
            probs = np.tile(probs, (count, 1))

    try:
        if x_s is not None:
            probs = np.tile(symmetric_spec(n, x_s, hot), (count, 1))
        oscillation = None if osc is None else Oscillation(*osc)
        spec = WorkloadSpec(probs, rate=rate, active=active, seed=seed, oscillation=oscillation)
    except ValueError as exc:
        raise ConfigError(f"{ctx}: {exc}") from None
    return spec, x_s, hot


def _apply_axis(base: dict, axis: str, value, topology: Optional[Topology]) -> dict:
    doc = copy.deepcopy(base)
    if axis == "x_s":
        wl = doc.get("workload")
        if not isinstance(wl, dict) or "x_s" not in wl:
            raise ConfigError("config.sweep.axis: 'x_s' needs the workload x_s form")
        wl["x_s"] = value
    elif axis == "t":
        pol = doc.get("policy")
        if not isinstance(pol, dict):
            raise ConfigError("config.sweep.axis: 't' needs a policy block")
        pol["t"] = value
        if pol.get("name") == "nna":
            pol["trigger"] = "threshold"
    elif axis == "fragment_size":
        frag = _object_block(doc, "fragments", {"count": 1})
        frag.pop("sizes", None)
        frag["size"] = value
    elif axis == "rate":
        _object_block(doc, "workload")["rate"] = value
    elif axis == "active_count":
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"config.sweep.values: active_count values must be integers, got {value!r}")
        if value > topology.n:
            raise ConfigError(f"config.sweep.values: active_count {value} exceeds the topology's {topology.n} sites")
        _object_block(doc, "workload")["active"] = list(range(value))
    return doc


def _object_block(doc: dict, key: str, default: Optional[dict] = None) -> dict:
    """``doc[key]``, which must be an object; a missing one becomes ``default``.

    Without a ``default`` a missing block stays missing, for
    :func:`resolve_run` to report, and a detached empty object comes back.
    """
    if key not in doc:
        if default is None:
            return {}
        doc[key] = default
    block = doc[key]
    if not isinstance(block, dict):
        raise ConfigError(f"config.{key}: must be an object")
    return block


# ---------------------------------------------------------------------------
# Typed readers; every message names the key


def _check_keys(obj: dict, ctx: str, required, optional) -> None:
    for key in obj:
        if key not in required and key not in optional:
            raise ConfigError(f"{ctx}: unknown key {key!r}")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{ctx}: missing required key {key!r}")


_MISSING = object()
_KIND_NAMES = {int: "an integer", float: "a number", bool: "true or false", str: "a string"}


def _key(obj: dict, ctx: str, key: str, kind: type, default=_MISSING, lo=None):
    """``obj[key]``, or ``default`` when it is missing, read as ``kind`` (see :func:`_entry`) and at least ``lo``."""
    value = obj.get(key, default)
    if value is _MISSING:
        raise ConfigError(f"{ctx}: missing required key {key!r}")
    value = _entry(value, f"{ctx}.{key}", kind)
    if lo is not None and value < lo:
        raise ConfigError(f"{ctx}.{key}: must be >= {lo}, got {value}")
    return value


def _entry(value, where: str, kind: type):
    """``value`` if it is a JSON ``kind``; a number comes back as a float.

    ``kind`` is ``int``, ``float`` (any number), ``bool`` or ``str``; a bool
    is none of the others, and an int too large for a float is no number.
    """
    types = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, types):
        raise ConfigError(f"{where}: must be {_KIND_NAMES[kind]}, got {value!r}")
    if kind is not float:
        return value
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{where}: must be a finite number, got {value}") from None
