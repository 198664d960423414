"""Weighted site graph with precomputed shortest-path routing tables.

Sites are numbered 0..n-1 and links are undirected with positive weights.
Every site is assumed to know the whole topology, so distances and
next-hop tables are computed once at construction time and reused by the
simulator for cost accounting and for hop-at-a-time migration routing.

Topologies are loaded from / saved to a small JSON document::

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


class SameSiteError(TopologyError):
    """Raised when a route from a site to itself is requested."""


@dataclass(frozen=True)
class Link:
    a: SiteId
    b: SiteId
    weight: float = 1.0


class Topology:
    """Immutable undirected site graph with all-pairs routing tables.

    Use :func:`build_topology` or :func:`load_topology` to construct one;
    the constructor itself assumes already-validated inputs.
    """

    def __init__(self, n: int, links: tuple[Link, ...], dist: np.ndarray, next_hop_table: np.ndarray):
        self._n = n
        self._links = links
        self._dist = dist
        self._next_hop = next_hop_table
        dist.setflags(write=False)
        next_hop_table.setflags(write=False)

    @property
    def n(self) -> int:
        return self._n

    @property
    def links(self) -> tuple[Link, ...]:
        return self._links

    @property
    def distance_matrix(self) -> np.ndarray:
        """Read-only (n, n) matrix of shortest-path distances."""
        return self._dist

    def distance(self, a: SiteId, b: SiteId) -> float:
        self._check_site(a)
        self._check_site(b)
        return float(self._dist[a, b])

    def next_hop(self, source: SiteId, target: SiteId) -> SiteId:
        """First site after ``source`` on a shortest path to ``target``.

        Ties between equal-cost shortest paths are broken toward the
        lowest-numbered neighbour, so routing is deterministic.
        """
        self._check_site(source)
        self._check_site(target)
        if source == target:
            raise SameSiteError(f"no next hop from site {source} to itself")
        return int(self._next_hop[source, target])

    @property
    def next_hop_matrix(self) -> np.ndarray:
        """Read-only (n, n) table of :meth:`next_hop`, with -1 on the diagonal."""
        return self._next_hop

    def to_dict(self) -> dict:
        return {"n": self._n, "links": [[ln.a, ln.b, ln.weight] for ln in self._links]}

    def _check_site(self, site: SiteId) -> None:
        if not (0 <= site < self._n):
            raise InvalidSiteError(f"site {site} out of range for {self._n} sites")

    def __repr__(self) -> str:
        return f"Topology(n={self._n}, links={len(self._links)})"


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
    try:
        n = int(doc["n"])
        raw_links = doc["links"]
    except (KeyError, TypeError, ValueError) as exc:
        raise TopologyError(f"malformed topology document: {exc}") from None
    if not isinstance(raw_links, list):
        raise TopologyError("malformed topology document: 'links' must be a list")
    return build_topology(n, raw_links)


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


def save_topology(topo: Topology, path) -> None:
    Path(path).write_text(json.dumps(topo.to_dict(), indent=2) + "\n")


def complete_topology(n: int, weight: float = 1.0) -> Topology:
    """Fully connected topology, handy for location-model experiments."""
    links = [(a, b, weight) for a in range(n) for b in range(a + 1, n)]
    return build_topology(n, links)
