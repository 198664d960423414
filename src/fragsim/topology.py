"""Weighted site graph with precomputed shortest-path routing tables.

Sites are numbered 0..n-1 and links are undirected with positive weights.
Every site is assumed to know the whole topology, so distances and
next-hop tables are computed once at construction time and reused by the
simulator for cost accounting and for hop-at-a-time migration routing.
The links are held in one dense n x n weight matrix (``inf`` where there
is no link); Floyd-Warshall over it gives the distances, and each site's
row of it gives that site's neighbours for the next-hop table.

Topologies are loaded from a small JSON document::

    {"n": 4, "links": [[0, 1, 1.0], [1, 2, 2.5], [2, 3, 1.0]]}
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SiteId = int

# Relative tolerance used when deciding whether a neighbour lies on a
# shortest path. Distances come out of one Floyd-Warshall run, so anything
# beyond accumulated float rounding means "not on a shortest path".
_PATH_TOL = 1e-9

# The most sites a topology may have. It bounds the two n x n routing tables
# (2 MB each at 500 sites) and the (block events x sites) arrays of nna and
# fna (about 52 MB per block at 500 sites).
MAX_SITES = 500


class TopologyError(Exception):
    """A topology that cannot be built: bad document, link or graph."""


def is_int(value) -> bool:
    """The one integer test of the package: an int or a numpy integer, never a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True, eq=False)
class Topology:
    """Immutable undirected site graph with all-pairs routing tables.

    ``distance_matrix[a, b]`` is the shortest-path distance between two
    sites. ``next_hop_matrix[source, target]`` is the first site after
    ``source`` on a shortest path to ``target``, with -1 on the diagonal;
    ties between equal-cost shortest paths are broken toward the
    lowest-numbered neighbour, so routing is deterministic. Both arrays
    are read-only. ``links`` holds one ``(a, b, weight)`` tuple per link.

    Use :func:`build_topology` or :func:`load_topology` to construct one;
    the constructor itself assumes already-validated inputs.
    """

    n: int
    links: tuple[tuple[SiteId, SiteId, float], ...]
    distance_matrix: np.ndarray
    next_hop_matrix: np.ndarray

    def __repr__(self) -> str:
        return f"Topology(n={self.n}, links={len(self.links)})"


def build_topology(n: int, links) -> Topology:
    """Validate ``links`` over ``n`` sites and precompute routing tables.

    The one link check for JSON documents and Python callers alike; it
    coerces nothing. ``links`` is a list or tuple of ``[a, b]`` /
    ``[a, b, weight]`` lists or tuples, with site ids in ``0..n-1`` that
    pass :func:`is_int` and positive, finite weights that pass it or
    are floats (bools do neither). A :class:`TopologyError` naming
    ``topology.links[i]`` or ``topology.links[i][j]`` reports any other
    link, a self-loop or a duplicate (in either direction); a
    disconnected graph, or ``n`` not an integer in ``1..MAX_SITES``, too.
    """
    if not is_int(n):
        raise TopologyError(f"topology.n: must be an integer, got {n!r}")
    if n < 1:
        raise TopologyError(f"topology.n: need at least one site, got {n}")
    if n > MAX_SITES:
        raise TopologyError(f"topology.n: at most {MAX_SITES} sites, got {n}")
    if not isinstance(links, (list, tuple)):
        raise TopologyError("topology.links: must be a list")

    norm: list[tuple[SiteId, SiteId, float]] = []
    weights = np.full((n, n), np.inf)
    for i, raw in enumerate(links):
        where = f"topology.links[{i}]"
        if not isinstance(raw, (list, tuple)) or len(raw) not in (2, 3):
            raise TopologyError(f"{where}: must be [a, b] or [a, b, weight], got {raw!r}")
        a, b, w = raw if len(raw) == 3 else (*raw, 1.0)
        for j, site in enumerate((a, b)):
            if not is_int(site):
                raise TopologyError(f"{where}[{j}]: must be an integer, got {site!r}")
            if not (0 <= site < n):
                raise TopologyError(f"{where}[{j}]: site {site} is outside 0..{n - 1}")
        if a == b:
            raise TopologyError(f"{where}: link ({a}, {b}) is a self-loop")
        if not (is_int(w) or isinstance(w, float)):
            raise TopologyError(f"{where}[2]: must be a number, got {w!r}")
        try:
            valid = 0 < float(w) < math.inf
        except OverflowError:  # an int too large for a float
            valid = False
        if not valid:
            raise TopologyError(f"{where}[2]: weight must be positive and finite, got {w}")
        if weights[a, b] < math.inf:
            raise TopologyError(f"{where}: link ({a}, {b}) appears more than once")
        weights[a, b] = weights[b, a] = w
        norm.append((a, b, w))

    # Floyd-Warshall in place; unreachable pairs stay at infinity
    dist = weights.copy()
    np.fill_diagonal(dist, 0.0)
    for k in range(n):
        np.minimum(dist, dist[:, k, None] + dist[k], out=dist)
    if not np.all(np.isfinite(dist)):
        raise TopologyError("graph is not connected")
    next_hop_table = _next_hop_table(weights, dist)
    dist.setflags(write=False)
    next_hop_table.setflags(write=False)
    return Topology(n, tuple(norm), dist, next_hop_table)


def _next_hop_table(weights: np.ndarray, dist: np.ndarray) -> np.ndarray:
    n = len(weights)
    table = np.full((n, n), -1, dtype=np.int64)
    for s in range(n):
        nbr = np.flatnonzero(weights[s] < np.inf)
        if not nbr.size:
            continue
        # candidate[k, t]: cost of reaching t via neighbour k
        candidate = weights[s, nbr, None] + dist[nbr]
        slack = np.abs(candidate - dist[s])
        on_path = slack <= _PATH_TOL * np.maximum(1.0, dist[s])
        # argmax returns the first hit and flatnonzero lists the weight
        # row's neighbours by ascending id, which gives the
        # lowest-numbered-neighbour tie-break.
        first = np.argmax(on_path, axis=0)
        usable = on_path.any(axis=0)
        table[s, usable] = nbr[first[usable]]
        table[s, s] = -1
    return table


def topology_from_dict(doc: dict) -> Topology:
    """Build a topology from a parsed JSON document ``{"n": .., "links": ..}``.

    No other key may appear; :func:`build_topology` checks ``n`` and the links.
    """
    odd = sorted(set(doc) ^ {"n", "links"})
    if odd:
        raise TopologyError(f"topology: {'unknown' if odd[0] in doc else 'missing required'} key {odd[0]!r}")
    return build_topology(doc["n"], doc["links"])


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def read_json_object(path, error: type[Exception], what: str) -> dict:
    """Parse the JSON object in ``path``, raising ``error`` if it is not one.

    Text that is not UTF-8, and ``NaN`` and ``Infinity``, which Python's
    reader accepts but RFC 8259 does not, are rejected as invalid JSON.
    I/O errors propagate as OSError.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"), parse_constant=_reject_constant)
    except ValueError as exc:
        raise error(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise error(f"{path}: {what} must be a JSON object")
    return doc


def load_topology(path) -> Topology:
    """Load a topology from a JSON file. I/O errors propagate as OSError."""
    return topology_from_dict(read_json_object(path, TopologyError, "topology document"))


def complete_topology(n: int) -> Topology:
    """Fully connected topology with unit weights, handy for location-model experiments."""
    links = [(a, b, 1.0) for a in range(n) for b in range(a + 1, n)]
    return build_topology(n, links)
