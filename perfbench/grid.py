"""oracle_grid workload: solve every grid cell with ``threshold_stationary``.

Run as ``python3 perfbench/grid.py --seed N --out FILE`` with ``src`` on
``PYTHONPATH``. Writes one JSON document: per cell, its o_s and the time
of that one call in ns, plus the time of the whole loop.
"""

from __future__ import annotations

import argparse
import json
import time

from exact import grid_cells


def run_grid(cells: list) -> dict:
    # Looked up by name at call time, so a traced run sees its wrapper.
    from fragsim import oracle

    clock = time.perf_counter_ns
    out = []
    loop_start = clock()
    for n, x_s, t in cells:
        start = clock()
        o_s = oracle.threshold_stationary(oracle.ChainParams(n=n, x_s=x_s, t=t)).o_s
        out.append([n, x_s, t, o_s, clock() - start])
    return {"cells": out, "loop_ns": clock() - loop_start}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    import fragsim  # noqa: F401  (import is part of the measured process, as for the CLI)

    result = run_grid(grid_cells(args.seed))
    with open(args.out, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
