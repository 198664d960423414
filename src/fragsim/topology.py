"""Weighted site graph with precomputed shortest-path routing tables.

Sites are numbered 0..n-1 and links are undirected with positive weights.
Every site is assumed to know the whole topology, so distances and
next-hop tables are computed once at construction time and reused by the
simulator for cost accounting and for hop-at-a-time migration routing.

Topologies are loaded from a small JSON document::

    {"n": 4, "links": [[0, 1, 1.0], [1, 2, 2.5], [2, 3, 1.0]]}
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SiteId = int

# Relative tolerance used when deciding whether a neighbour lies on a
# shortest path. Distances come out of one Dijkstra run, so anything
# beyond accumulated float rounding means "not on a shortest path".
_PATH_TOL = 1e-9

# The most sites a topology may have. It bounds the two n x n routing tables
# (2 MB each at 500 sites) and the (block events x sites) arrays of nna and
# fna (about 52 MB per block at 500 sites).
MAX_SITES = 500


class TopologyError(Exception):
    """A topology that cannot be built: bad document, link or graph."""


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
    ``[a, b, weight]`` lists or tuples, with int site ids in
    ``0..n-1`` and positive, finite int or float weights (bools are
    neither). A :class:`TopologyError` naming
    ``topology.links[i]`` or ``topology.links[i][j]`` reports any other
    link, a self-loop or a duplicate (in either direction); a
    disconnected graph, or ``n`` outside ``1..MAX_SITES``, raises too.
    """
    if n < 1:
        raise TopologyError(f"topology.n: need at least one site, got {n}")
    if n > MAX_SITES:
        raise TopologyError(f"topology.n: at most {MAX_SITES} sites, got {n}")
    if not isinstance(links, (list, tuple)):
        raise TopologyError("topology.links: must be a list")

    norm: list[tuple[SiteId, SiteId, float]] = []
    seen: set[tuple[int, int]] = set()
    for i, raw in enumerate(links):
        where = f"topology.links[{i}]"
        if not isinstance(raw, (list, tuple)) or len(raw) not in (2, 3):
            raise TopologyError(f"{where}: must be [a, b] or [a, b, weight], got {raw!r}")
        a, b, w = raw if len(raw) == 3 else (*raw, 1.0)
        for j, site in enumerate((a, b)):
            if isinstance(site, bool) or not isinstance(site, int):
                raise TopologyError(f"{where}[{j}]: must be an integer, got {site!r}")
            if not (0 <= site < n):
                raise TopologyError(f"{where}[{j}]: site {site} is outside 0..{n - 1}")
        if a == b:
            raise TopologyError(f"{where}: link ({a}, {b}) is a self-loop")
        if isinstance(w, bool) or not isinstance(w, (int, float)):
            raise TopologyError(f"{where}[2]: must be a number, got {w!r}")
        if not (0 < w < math.inf):
            raise TopologyError(f"{where}[2]: weight must be positive and finite, got {w}")
        key = (min(a, b), max(a, b))
        if key in seen:
            raise TopologyError(f"{where}: link ({a}, {b}) appears more than once")
        seen.add(key)
        norm.append((a, b, w))

    # adjacency[s]: (neighbour, weight) pairs sorted by neighbour id
    adjacency: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for a, b, w in norm:
        adjacency[a].append((b, w))
        adjacency[b].append((a, w))
    for pairs in adjacency:
        pairs.sort()
    dist = _all_pairs_distances(adjacency)
    if not np.all(np.isfinite(dist)):
        raise TopologyError("graph is not connected")
    next_hop_table = _next_hop_table(adjacency, dist)
    dist.setflags(write=False)
    next_hop_table.setflags(write=False)
    return Topology(n, tuple(norm), dist, next_hop_table)


def _all_pairs_distances(adjacency: list[list[tuple[int, float]]]) -> np.ndarray:
    """Dijkstra from every source; unreachable pairs stay at infinity."""
    n = len(adjacency)
    rows = []
    for s in range(n):
        row = [np.inf] * n
        row[s] = 0.0
        heap = [(0.0, s)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > row[u]:
                continue
            for v, w in adjacency[u]:
                if d + w < row[v]:
                    row[v] = d + w
                    heapq.heappush(heap, (row[v], v))
        rows.append(row)
    return np.array(rows)


def _next_hop_table(adjacency: list[list[tuple[int, float]]], dist: np.ndarray) -> np.ndarray:
    n = len(adjacency)
    table = np.full((n, n), -1, dtype=np.int64)
    for s in range(n):
        if not adjacency[s]:
            continue
        nbr = np.array([u for u, _ in adjacency[s]])
        w = np.array([wt for _, wt in adjacency[s]])
        # candidate[k, t]: cost of reaching t via neighbour k
        candidate = w[:, None] + dist[nbr, :]
        slack = np.abs(candidate - dist[s, :][None, :])
        on_path = slack <= _PATH_TOL * np.maximum(1.0, dist[s, :])[None, :]
        # argmax returns the first hit and neighbours are sorted by id,
        # which gives the lowest-numbered-neighbour tie-break.
        first = np.argmax(on_path, axis=0)
        usable = on_path.any(axis=0)
        table[s, usable] = nbr[first[usable]]
        table[s, s] = -1
    return table


def topology_from_dict(doc: dict) -> Topology:
    """Build a topology from a parsed JSON document ``{"n": .., "links": ..}``.

    No other key may appear and ``n`` must be an integer;
    :func:`build_topology` checks the links.
    """
    odd = sorted(set(doc) ^ {"n", "links"})
    if odd:
        raise TopologyError(f"topology: {'unknown' if odd[0] in doc else 'missing required'} key {odd[0]!r}")
    if isinstance(doc["n"], bool) or not isinstance(doc["n"], int):
        raise TopologyError(f"topology.n: must be an integer, got {doc['n']!r}")
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


def complete_topology(n: int, weight: float = 1.0) -> Topology:
    """Fully connected topology, handy for location-model experiments."""
    links = [(a, b, weight) for a in range(n) for b in range(a + 1, n)]
    return build_topology(n, links)
