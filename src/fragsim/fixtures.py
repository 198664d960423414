"""Bundled reference topology and ready-to-run experiment documents.

The nine-site reference network (sites A..I mapped to ids 0..8) is the
one used in the one-hop walkthrough tests and demos::

    E(4)   H(7)
      \\     |
       G(6)-I(8)
        |
       B(1)-C(2)-A(0)-D(3)-F(5)

:func:`write_fixtures` drops the topology plus a handful of experiment
configs (threshold sweeps, an oscillation comparison, the walkthrough
run) into a directory; they are plain config documents for the CLI.
"""

from __future__ import annotations

import json
from pathlib import Path

from .topology import Topology, build_topology

FIG3_SITE_NAMES = "ABCDEFGHI"

_REFERENCE_LINKS = [
    [0, 2, 1.0],
    [2, 1, 1.0],
    [1, 6, 1.0],
    [6, 7, 1.0],
    [6, 8, 1.0],
    [6, 4, 1.0],
    [0, 3, 1.0],
    [3, 5, 1.0],
]


def reference_topology_dict() -> dict:
    return {"n": 9, "links": [list(link) for link in _REFERENCE_LINKS]}


def _dump_topology_doc(doc: dict) -> str:
    # keep each link on one line instead of json.dumps' one-number-per-line
    lines = ",\n".join(f"    {json.dumps(link)}" for link in doc["links"])
    return f'{{\n  "n": {doc["n"]},\n  "links": [\n{lines}\n  ]\n}}\n'


def reference_topology() -> Topology:
    return build_topology(9, _REFERENCE_LINKS)


def site_name(site: int) -> str:
    return FIG3_SITE_NAMES[site]


def _complete_topology_dict(n: int) -> dict:
    return {"n": n, "links": [[a, b, 1.0] for a in range(n) for b in range(a + 1, n)]}


SWEEP_SITES = 5
SWEEP_STEPS = 100_000
SWEEP_REPLICATIONS = 3
OSCILLATION_PERIOD = 50
OSCILLATION_STEPS = 10_000
OSCILLATION_FRAGMENTS = 10


def threshold_sweep(name: str, axis: str, values: list, t: int, x_s: float) -> dict:
    """A threshold-policy sweep on the complete 5-site network, writing ``name``.csv.

    Over ``x_s`` at threshold ``t`` it gives the residency-versus-skew
    curve; over ``t`` at skew ``x_s``, the convergence toward the hot site.
    """
    return {
        "topology": _complete_topology_dict(SWEEP_SITES),
        "policy": {"name": "threshold", "t": t},
        "workload": {"x_s": x_s},
        "num_steps": SWEEP_STEPS,
        "seed": 1,
        "sweep": {
            "axis": axis,
            "values": values,
            "replications": SWEEP_REPLICATIONS,
        },
        "output": {"metrics": f"{name}.csv"},
    }


def walkthrough_run() -> dict:
    """One fragment starting at A, workload on E, G, H, I; nna walks it to G."""
    row = [0.0] * 9
    for site in (4, 6, 7, 8):
        row[site] = 0.25
    return {
        "topology": "fig3.json",
        "policy": {"name": "nna"},
        "workload": {"probs": row},
        "initial_owners": 0,
        "num_steps": 200,
        "seed": 7,
        "output": {"metrics": "walkthrough_metrics.csv", "decisions": "walkthrough_decisions.csv"},
    }


def oscillation_compare_run() -> dict:
    """Hot mass flipping between the adjacent sites G and H every ``OSCILLATION_PERIOD`` events.

    Ten fragments follow the same alternating profile, so the aggregate
    migration count is what separates the policies: summing independent
    fragments washes out the occasional fragment whose counters drift far
    enough that the nearest-neighbour race goes quiet.
    """
    return {
        "topology": "fig3.json",
        "policy": {"name": "nna"},
        "fragments": {"count": OSCILLATION_FRAGMENTS},
        "workload": {"x_s": 0.8, "hot": 6, "oscillation": {"site_a": 6, "site_b": 7, "period": OSCILLATION_PERIOD}},
        "initial_owners": 0,
        "num_steps": OSCILLATION_STEPS,
        "designated": 6,
        "seed": 1,
    }


def write_fixtures(out_dir) -> list:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    xs_values = [round(0.1 * k, 1) for k in range(1, 10)]
    t_values = [0, 1, 2, 3, 5, 7, 10, 15, 20, 30]
    sweeps = [(f"residency_vs_xs_t{t}", "x_s", xs_values, t, 0.2) for t in (0, 3, 10)]
    sweeps += [(f"residency_vs_t_xs{round(x_s * 100):03d}", "t", t_values, 0, x_s) for x_s in (0.28, 0.12)]
    documents = {"fig3.json": reference_topology_dict()}
    documents.update((f"{sweep[0]}.json", threshold_sweep(*sweep)) for sweep in sweeps)
    documents["walkthrough.json"] = walkthrough_run()
    documents["oscillation_compare.json"] = oscillation_compare_run()
    written = []
    for name, doc in documents.items():
        path = out / name
        if name == "fig3.json":
            path.write_text(_dump_topology_doc(doc))
        else:
            path.write_text(json.dumps(doc, indent=2) + "\n")
        written.append(path)
    return written
