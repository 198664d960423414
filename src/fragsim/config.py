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
  :class:`~fragsim.policies.FnaParams`, whose JSON types come from
  :data:`~fragsim.policies.POLICY_KEYS`;
* links, weights and the site count: :func:`~fragsim.topology.build_topology`,
  whose :class:`~fragsim.topology.TopologyError` is left as it is (exit 3).

Three bounds are kept here, because they must hold before anything is
built: ``fragments.count`` (``MAX_FRAGMENTS``), a sweep's values times
replications (``MAX_SWEEP_CELLS``), and those cells' probability entries,
cells times fragments times sites (``MAX_SWEEP_ENTRIES``).

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
from .policies import POLICY_KEYS, FnaParams, PolicySpec
from .topology import Topology, load_topology, read_json_object, topology_from_dict
from .workload import Oscillation, WorkloadSpec, symmetric_spec

import numpy as np

SWEEP_AXES = ("x_s", "t", "fragment_size", "rate", "active_count")

# Checked before anything is built. MAX_FRAGMENTS with topology.MAX_SITES bounds
# the (fragments x sites) state of nna and fna at 500 000 entries, 4 MB an array;
# MAX_SWEEP_CELLS bounds the runs a sweep resolves before the first one starts, and
# MAX_SWEEP_ENTRIES the probability rows and sampling tables that each cell holds.
MAX_FRAGMENTS = 1000
MAX_SWEEP_CELLS = 1000
MAX_SWEEP_ENTRIES = 25_000_000


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
    _object(
        doc,
        ctx,
        required=("topology", "workload", "num_steps") + (() if policy_override else ("policy",)),
        optional=("policy", "fragments", "initial_owners", "seed", "designated", "per_hop_latency", "migration_blocking", "output", "sweep"),
    )
    if "sweep" in doc:
        raise ConfigError("config: 'sweep' block present, use the sweep command")

    out_doc = _object(doc.get("output", {}), "config.output", (), ("metrics", "decisions"))
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
    sweep_doc = _object(doc["sweep"], "config.sweep", ("axis", "values"), ("replications",))
    axis = _key(sweep_doc, "config.sweep", "axis", str)
    if axis not in SWEEP_AXES:
        raise ConfigError(f"config.sweep.axis: unknown axis {axis!r}, expected one of {', '.join(SWEEP_AXES)}")
    values = sweep_doc["values"]
    if not isinstance(values, list) or not values:
        raise ConfigError("config.sweep.values: must be a non-empty list")
    replications = _key(sweep_doc, "config.sweep", "replications", int, 1, lo=1)
    cells = len(values) * replications
    if cells > MAX_SWEEP_CELLS:
        raise ConfigError(
            f"config.sweep: {len(values)} values times {replications} replications exceed {MAX_SWEEP_CELLS} cells"
        )
    repeated = [v for i, v in enumerate(values) if v in values[:i]]
    if repeated:
        raise ConfigError(f"config.sweep.values: {repeated[0]!r} appears more than once, values must be distinct")

    base = {k: v for k, v in doc.items() if k != "sweep"}
    base_seed = seed_override if seed_override is not None else _key(base, "config", "seed", int, 0)

    # No axis varies the topology or the fragment count: resolve the one and read the
    # other once, and bound what the cells hold by both before any cell resolves.
    topology = _resolve_topology(_object(base, "config", ("topology",), None)["topology"], base_dir)
    count = _fragment_count(base.get("fragments", {"count": 1}))
    entries = cells * count * topology.n
    if entries > MAX_SWEEP_ENTRIES:
        raise ConfigError(
            f"config.sweep: {cells} cells of {count} fragments on {topology.n} sites "
            f"hold {entries} probability entries, more than {MAX_SWEEP_ENTRIES}"
        )

    seeds = range(base_seed, base_seed + replications)
    groups = []
    for value in values:
        varied = _apply_axis(base, axis, value, topology)
        groups.append((value, [resolve_run(varied, base_dir, seed, topology=topology) for seed in seeds]))
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


def _fragment_count(block) -> int:
    ctx = "config.fragments"
    count = _key(_object(block, ctx, ("count",), ("size", "sizes")), ctx, "count", int, lo=1)
    if count > MAX_FRAGMENTS:
        raise ConfigError(f"{ctx}.count: at most {MAX_FRAGMENTS} fragments, got {count}")
    return count


def _resolve_sizes(block) -> list:
    ctx = "config.fragments"
    count = _fragment_count(block)
    if "sizes" in block:
        if "size" in block:
            raise ConfigError(f"{ctx}: give either 'size' or 'sizes', not both")
        sizes = block["sizes"]
        if not isinstance(sizes, list) or len(sizes) != count:
            raise ConfigError(f"{ctx}.sizes: must be a list of length {count}")
        return [_entry(s, f"{ctx}.sizes", float) for s in sizes]
    return [_key(block, ctx, "size", float, 1.0)] * count


def _resolve_owners(block, count: int) -> list:
    owners = [block] * count if not isinstance(block, list) else block
    return [_entry(owner, "config.initial_owners", int) for owner in owners]


def _resolve_policy(block, ctx: str = "config.policy") -> PolicySpec:
    """Read the policy's keys as their :data:`~fragsim.policies.POLICY_KEYS` types; ``t`` and ``counter_cap`` may be null."""
    name = _key(_object(block, ctx, (), None), ctx, "name", str)
    kinds = POLICY_KEYS.get(name, {})
    _object(block, ctx, ("name",), kinds)
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
    _object(block, ctx, (), ("x_s", "hot", "probs", "rate", "active", "oscillation"))
    if ("x_s" in block) == ("probs" in block):
        raise ConfigError(f"{ctx}: give exactly one of 'x_s' or 'probs'")
    rate = _key(block, ctx, "rate", float, 1.0)

    active = None
    if "active" in block:
        if not isinstance(block["active"], list):
            raise ConfigError(f"{ctx}.active: must be a list of site ids")
        active = tuple(_entry(site, f"{ctx}.active", int) for site in block["active"])

    osc = None
    if "oscillation" in block:
        octx, keys = f"{ctx}.oscillation", ("site_a", "site_b", "period")
        osc_doc = _object(block["oscillation"], octx, keys, ())
        osc = [_key(osc_doc, octx, key, int) for key in keys]

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


def _apply_axis(base: dict, axis: str, value, topology: Topology) -> dict:
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
    elif axis == "fragment_size":  # resolve_sweep has read the fragments block
        frag = doc.setdefault("fragments", {"count": 1})
        frag.pop("sizes", None)
        frag["size"] = value
    elif axis == "rate":  # a missing workload block stays missing, for resolve_run to report
        _object(doc.get("workload", {}), "config.workload", (), None)["rate"] = value
    elif axis == "active_count":
        if _entry(value, "config.sweep.values", int) > topology.n:
            raise ConfigError(f"config.sweep.values: active_count {value} exceeds the topology's {topology.n} sites")
        _object(doc.get("workload", {}), "config.workload", (), None)["active"] = list(range(value))
    return doc


# ---------------------------------------------------------------------------
# Typed readers; every message names the key


def _object(obj, ctx: str, required, optional) -> dict:
    """``obj``, which must be an object with every ``required`` key and, unless ``optional`` is None, no key outside both."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{ctx}: must be an object")
    for key in obj:
        if optional is not None and key not in required and key not in optional:
            raise ConfigError(f"{ctx}: unknown key {key!r}")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{ctx}: missing required key {key!r}")
    return obj


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
