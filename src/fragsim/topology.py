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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SiteId = int

# Relative tolerance used when deciding whether a neighbour lies on a
# shortest path. Distances come out of one Dijkstra run, so anything
# beyond accumulated float rounding means "not on a shortest path".
_PATH_TOL = 1e-9


class TopologyError(Exception):
    """Base class for all topology construction and routing errors."""


class SelfLoopError(TopologyError):
    pass


class DuplicateLinkError(TopologyError):
    pass


class NonPositiveWeightError(TopologyError):
    pass


class DisconnectedGraphError(TopologyError):
    pass


class InvalidSiteError(TopologyError):
    pass


@dataclass(frozen=True)
class Link:
    a: SiteId
    b: SiteId
    weight: float = 1.0


@dataclass(frozen=True, eq=False)
class Topology:
    """Immutable undirected site graph with all-pairs routing tables.

    ``distance_matrix[a, b]`` is the shortest-path distance between two
    sites. ``next_hop_matrix[source, target]`` is the first site after
    ``source`` on a shortest path to ``target``, with -1 on the diagonal;
    ties between equal-cost shortest paths are broken toward the
    lowest-numbered neighbour, so routing is deterministic. Both arrays
    are read-only.

    Use :func:`build_topology` or :func:`load_topology` to construct one;
    the constructor itself assumes already-validated inputs.
    """

    n: int
    links: tuple[Link, ...]
    distance_matrix: np.ndarray
    next_hop_matrix: np.ndarray

    def __repr__(self) -> str:
        return f"Topology(n={self.n}, links={len(self.links)})"


def build_topology(n: int, links) -> Topology:
    """Validate ``links`` over ``n`` sites and precompute routing tables.

    ``links`` is an iterable of ``Link`` or ``(a, b, weight)`` /
    ``(a, b)`` tuples. Raises a :class:`TopologyError` subclass on
    self-loops, duplicate links (in either direction), non-positive
    weights, out-of-range endpoints, or a disconnected graph.
    """
    if n < 1:
        raise InvalidSiteError(f"need at least one site, got n={n}")

    norm: list[Link] = []
    seen: set[tuple[int, int]] = set()
    for raw in links:
        if isinstance(raw, Link):
            a, b, w = raw.a, raw.b, raw.weight
        else:
            parts = tuple(raw)
            if len(parts) == 2:
                a, b = parts
                w = 1.0
            else:
                a, b, w = parts
        a, b, w = int(a), int(b), float(w)
        if not (0 <= a < n) or not (0 <= b < n):
            raise InvalidSiteError(f"link ({a}, {b}) references a site outside 0..{n - 1}")
        if a == b:
            raise SelfLoopError(f"link ({a}, {b}) is a self-loop")
        if w <= 0:
            raise NonPositiveWeightError(f"link ({a}, {b}) has non-positive weight {w}")
        key = (min(a, b), max(a, b))
        if key in seen:
            raise DuplicateLinkError(f"link ({a}, {b}) appears more than once")
        seen.add(key)
        norm.append(Link(a, b, w))

    # adjacency[s]: (neighbour, weight) pairs sorted by neighbour id
    adjacency: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for ln in norm:
        adjacency[ln.a].append((ln.b, ln.weight))
        adjacency[ln.b].append((ln.a, ln.weight))
    for pairs in adjacency:
        pairs.sort()
    dist = _all_pairs_distances(adjacency)
    if not np.all(np.isfinite(dist)):
        raise DisconnectedGraphError("graph is not connected")
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
    """Build a topology from a parsed JSON document, coercing nothing.

    ``n`` and site ids must be integers, weights numbers, each link
    ``[a, b]`` or ``[a, b, weight]``, and no other key may appear; a
    :class:`TopologyError` names the field that is not.
    """
    odd = sorted(set(doc) ^ {"n", "links"})
    if odd:
        raise TopologyError(f"topology: {'unknown' if odd[0] in doc else 'missing required'} key {odd[0]!r}")
    _check_json(doc["n"], int, "topology.n")
    if not isinstance(doc["links"], list):
        raise TopologyError("topology.links: must be a list")
    for i, link in enumerate(doc["links"]):
        if not isinstance(link, list) or len(link) not in (2, 3):
            raise TopologyError(f"topology.links[{i}]: must be [a, b] or [a, b, weight], got {link!r}")
        for j, value in enumerate(link):
            _check_json(value, int if j < 2 else (int, float), f"topology.links[{i}][{j}]")
    return build_topology(doc["n"], doc["links"])


def _check_json(value, kind, where: str) -> None:
    if isinstance(value, bool) or not isinstance(value, kind):
        raise TopologyError(f"{where}: must be {'an integer' if kind is int else 'a number'}, got {value!r}")


def load_topology(path) -> Topology:
    """Load a topology from a JSON file. I/O errors propagate as OSError."""
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TopologyError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise TopologyError(f"{path}: topology document must be a JSON object")
    return topology_from_dict(doc)


def complete_topology(n: int, weight: float = 1.0) -> Topology:
    """Fully connected topology, handy for location-model experiments."""
    links = [(a, b, weight) for a in range(n) for b in range(a + 1, n)]
    return build_topology(n, links)
