"""Traced child: run one workload in-process with a span around each layer.

Usage, from the checkout root with ``src`` on ``PYTHONPATH``::

    python3 perfbench/traced.py STATS_FILE cli <fragsim CLI arguments...>
    python3 perfbench/traced.py STATS_FILE grid SEED OUT_FILE

The public entry points of each ``fragsim`` module are looked up by name
and wrapped from here; the package itself is not changed. An entry point
that no longer exists is reported as absent. Spans of the coarse layers
(CLI, config, topology build, ``engine.run``, oracle cells) are kept one by
one as (layer, start, end, parent). The per-access layers are called
millions of times, so their spans are folded into per-layer totals as
they close: calls, total and self time, calls of child layers, and a
layer-specific outcome count (events emitted, moves decided).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

clock = time.perf_counter_ns

# (layer, module, attribute, keep each span)
ENTRY_POINTS = (
    ("cli.main", "fragsim.cli", "main", True),
    ("config.load_config", "fragsim.config", "load_config", True),
    ("config.resolve_run", "fragsim.config", "resolve_run", True),
    ("config.resolve_sweep", "fragsim.config", "resolve_sweep", True),
    ("topology.build", "fragsim.topology", "build_topology", True),
    ("engine.run", "fragsim.engine", "run", True),
    ("workload.next_event", "fragsim.workload", "EventStream.next_event", False),
    ("topology.next_hop", "fragsim.topology", "Topology.next_hop", False),
    ("allocation.apply_migration", "fragsim.allocation", "apply_migration", False),
    ("oracle.threshold_stationary", "fragsim.oracle", "threshold_stationary", True),
    ("oracle.lstsq", "numpy.linalg", "lstsq", False),
)
POLICY_NAMES = ("threshold", "optimal", "nna", "fna")
POLICY_METHODS = ("on_access", "decide")  # the decision entry point, current name first


def _emitted(event) -> bool:
    return event is not None


def _moved(decision) -> bool:
    if isinstance(decision, int):
        return decision >= 0  # a destination site, or -1 for stay
    return bool(getattr(decision, "is_move", False))


OUTCOMES = {"plain": None, "emitted": _emitted, "moved": _moved}


class Tracer:
    def __init__(self):
        self.stack = []  # open spans: [layer, child ns, child calls]
        self.stats = {}  # layer -> [calls, total ns, self ns, child calls, outcomes]
        self.spans = []  # closed coarse spans: (layer, start ns, end ns, parent layer)
        self.kinds = {}  # layer -> outcome kind

    def wrap(self, layer, fn, keep_spans, kind="plain"):
        stats = self.stats.setdefault(layer, [0, 0, 0, 0, 0])
        self.kinds[layer] = kind
        outcome = OUTCOMES[kind]
        stack = self.stack
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [layer, 0, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if outcome is not None and outcome(result):
                    stats[4] += 1
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[1]
                stats[3] += frame[2]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += duration
                    parent[2] += 1
                if keep_spans:
                    spans.append((layer, start, end, parent[0] if parent else None))
            return result

        return traced


def _rebind(original, wrapped) -> None:
    # ``from .engine import run as run_sim`` and the like keep their own
    # reference; point every fragsim module global at the wrapper.
    for name, module in list(sys.modules.items()):
        if name == "fragsim" or name.startswith("fragsim."):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)


def install(tracer: Tracer) -> list:
    """Wrap every entry point that exists; return the layers that do not."""
    absent = []
    for layer, module_name, attr, keep in ENTRY_POINTS:
        owner_name, _, name = attr.rpartition(".")
        try:
            owner = importlib.import_module(module_name)
            if owner_name:
                owner = getattr(owner, owner_name)
            original = getattr(owner, name)
        except (ImportError, AttributeError):
            absent.append(layer)
            continue
        wrapped = tracer.wrap(layer, original, keep, "emitted" if layer == "workload.next_event" else "plain")
        setattr(owner, name, wrapped)
        if not owner_name:
            _rebind(original, wrapped)
    policies = importlib.import_module("fragsim.policies")
    classes = {getattr(obj, "name", None): obj for obj in vars(policies).values() if isinstance(obj, type)}
    for policy in POLICY_NAMES:
        cls = classes.get(policy)
        method = next((m for m in POLICY_METHODS if cls is not None and hasattr(cls, m)), None)
        if method is None:
            absent.append(f"policies.{policy}")
            continue
        setattr(cls, method, tracer.wrap(f"policies.{policy}", getattr(cls, method), False, "moved"))
    return absent


class _Probe:
    def raw(self, a, b):
        return None


def calibrate(samples: int = 100_000) -> dict:
    """Wrapper cost per call: inside the child's span, and billed to its parent.

    Measured on a bound method with two arguments, the shape of the hot
    entry points. The inside cost depends on the layer's outcome count, so
    it is measured for each kind; the outside cost does not.
    """

    def loop(call) -> float:
        start = clock()
        if call is None:
            for i in range(samples):
                pass
        else:
            for i in range(samples):
                call(i, i)
        return (clock() - start) / samples

    best = None
    probe = _Probe()
    for _ in range(3):
        tracer = Tracer()
        tracer.stack.append(["parent", 0, 0])
        for kind in OUTCOMES:
            setattr(_Probe, kind, tracer.wrap(kind, _Probe.raw, False, kind))
        empty = loop(None)
        raw = loop(probe.raw) - empty
        cost = {"outer_ns": float("inf")}
        for kind in OUTCOMES:
            wall = loop(getattr(probe, kind)) - empty
            span = tracer.stats[kind][1] / samples
            cost[kind] = max(0.0, span - raw)
            cost["outer_ns"] = min(cost["outer_ns"], max(0.0, wall - span))
        if best is None or sum(cost.values()) < sum(best.values()):
            best = cost
    return best


def layer_report(tracer: Tracer, calibration: dict) -> dict:
    """Per-layer totals, with the wrappers' own cost taken out of self time."""
    report = {}
    for layer, (calls, total_ns, self_ns, child_calls, outcomes) in tracer.stats.items():
        own = self_ns - calls * calibration[tracer.kinds[layer]] - child_calls * calibration["outer_ns"]
        report[layer] = {"calls": calls, "total_ns": total_ns, "self_ns": max(0.0, own), "outcomes": outcomes}
    return report


def main(argv: list) -> int:
    stats_path, mode, *rest = argv
    import fragsim  # noqa: F401

    start = clock()
    calibration = calibrate()
    calibration["duration_ns"] = clock() - start
    tracer = Tracer()
    absent = install(tracer)
    if mode == "cli":
        code = importlib.import_module("fragsim.cli").main(rest)
    else:
        from exact import grid_cells
        from grid import run_grid

        seed, out = rest
        with open(out, "w") as fh:
            json.dump(run_grid(grid_cells(int(seed))), fh)
        code = 0
    report = {
        "layers": layer_report(tracer, calibration),
        "spans": tracer.spans,
        "absent": absent,
        "calibration": calibration,
    }
    with open(stats_path, "w") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
