"""Routing table tests, cross-checked against independent reimplementations.

The oracles here (BFS for unit weights, a heapq Dijkstra for general
weights, brute-force simple-path enumeration for tie-breaks) share no
code with the package on purpose.
"""

import heapq
import itertools
import json
import random
from collections import deque
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fragsim.fixtures import reference_topology, reference_topology_dict
from fragsim.oracle import ChainParams
from fragsim.policies import FnaParams, PolicySpec
from fragsim.topology import (
    MAX_SITES,
    TopologyError,
    build_topology,
    complete_topology,
    is_int,
    load_topology,
    topology_from_dict,
)
from fragsim.workload import Oscillation, WorkloadSpec, symmetric_spec

INF = float("inf")


def bfs_distances(n, edges):
    """Unit-weight all-pairs distances, breadth-first."""
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    dist = [[INF] * n for _ in range(n)]
    for s in range(n):
        dist[s][s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if dist[s][v] == INF:
                    dist[s][v] = dist[s][u] + 1
                    queue.append(v)
    return dist


def dijkstra_distances(n, links):
    """Weighted all-pairs distances via textbook heapq Dijkstra."""
    adj = [[] for _ in range(n)]
    for a, b, w in links:
        adj[a].append((b, w))
        adj[b].append((a, w))
    dist = [[INF] * n for _ in range(n)]
    for s in range(n):
        dist[s][s] = 0.0
        heap = [(0.0, s)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[s][u]:
                continue
            for v, w in adj[u]:
                nd = d + w
                if nd < dist[s][v] - 1e-15:
                    dist[s][v] = nd
                    heapq.heappush(heap, (nd, v))
    return dist


def shortest_path_first_hops(n, links, source, target):
    """Minimum path cost and every first hop achieving it, by enumeration.

    Arrivals worse than the best-so-far are pruned on entry, so after the
    walk the recorded hops are exactly those on some minimum-cost path.
    """
    adj = [[] for _ in range(n)]
    for a, b, w in links:
        adj[a].append((b, w))
        adj[b].append((a, w))
    best = [INF]
    hops = set()

    def walk(node, cost, first, visited):
        if cost > best[0] + 1e-12:
            return
        if node == target:
            if cost < best[0] - 1e-12:
                best[0] = cost
                hops.clear()
            hops.add(first)
            return
        for v, w in adj[node]:
            if v not in visited:
                walk(v, cost + w, v if first is None else first, visited | {v})

    walk(source, 0.0, None, {source})
    return best[0], hops


class TestConstruction:
    def test_single_site(self):
        topo = build_topology(1, [])
        assert topo.n == 1
        assert topo.distance_matrix[0][0] == 0.0
        assert topo.next_hop_matrix[0][0] == -1

    def test_path_graph(self):
        topo = build_topology(3, [(0, 1, 1.0), (1, 2, 2.5)])
        assert topo.distance_matrix[0][2] == pytest.approx(3.5)
        assert topo.next_hop_matrix[0][2] == 1
        assert topo.next_hop_matrix[2][0] == 1
        assert topo.next_hop_matrix[1][0] == 0
        assert [(a, b) for a, b, _ in topo.links] == [(0, 1), (1, 2)], "site 1 neighbours 0 and 2"

    def test_default_weight_is_one(self):
        topo = build_topology(2, [(0, 1)])
        assert topo.distance_matrix[0][1] == 1.0

    def test_complete_topology(self):
        topo = complete_topology(4)
        for a in range(4):
            for b in range(4):
                assert topo.distance_matrix[a][b] == (0.0 if a == b else 1.0)

    def test_self_loop_rejected(self):
        with pytest.raises(TopologyError, match="is a self-loop"):
            build_topology(3, [(0, 0)])

    def test_duplicate_rejected(self):
        with pytest.raises(TopologyError, match="appears more than once"):
            build_topology(3, [(0, 1), (1, 2), (0, 1, 2.0)])

    def test_duplicate_reversed_rejected(self):
        with pytest.raises(TopologyError, match="appears more than once"):
            build_topology(3, [(0, 1), (1, 0)])

    def test_non_positive_weight_rejected(self):
        with pytest.raises(TopologyError, match="weight must be positive and finite"):
            build_topology(2, [(0, 1, 0.0)])
        with pytest.raises(TopologyError, match="weight must be positive and finite"):
            build_topology(2, [(0, 1, -1.0)])

    def test_out_of_range_endpoint_rejected(self):
        with pytest.raises(TopologyError, match=r"site 5 is outside 0\.\.2"):
            build_topology(3, [(0, 5)])

    def test_disconnected_rejected(self):
        with pytest.raises(TopologyError, match="graph is not connected"):
            build_topology(4, [(0, 1), (2, 3)])
        with pytest.raises(TopologyError, match="graph is not connected"):
            build_topology(2, [])

    def test_bad_n_rejected(self):
        with pytest.raises(TopologyError, match="need at least one site"):
            build_topology(0, [])
        with pytest.raises(TopologyError, match=f"topology.n: at most {MAX_SITES} sites, got {MAX_SITES + 1}"):
            build_topology(MAX_SITES + 1, [])
        assert build_topology(MAX_SITES, [(s, s + 1) for s in range(MAX_SITES - 1)]).n == MAX_SITES

    def test_distance_matrix_read_only(self):
        topo = build_topology(2, [(0, 1)])
        with pytest.raises(ValueError):
            topo.distance_matrix[0, 1] = 5.0
        with pytest.raises(ValueError):
            topo.next_hop_matrix[0, 1] = 0
        with pytest.raises(AttributeError):
            topo.n = 3


class TestTieBreaks:
    def test_diamond_prefers_lowest_neighbor(self):
        # two equal-cost paths 0-1-3 and 0-2-3
        topo = build_topology(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        assert topo.next_hop_matrix[0][3] == 1
        assert topo.next_hop_matrix[3][0] == 1

    def test_tie_break_matches_path_enumeration(self):
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randint(3, 6)
            all_pairs = list(itertools.combinations(range(n), 2))
            while True:
                chosen = [p for p in all_pairs if rng.random() < 0.55]
                if not chosen:
                    continue
                dist = bfs_distances(n, chosen)
                if all(d != INF for row in dist for d in row):
                    break
            links = [(a, b, 1.0) for a, b in chosen]
            topo = build_topology(n, links)
            for s in range(n):
                for t in range(n):
                    if s == t:
                        continue
                    cost, hops = shortest_path_first_hops(n, links, s, t)
                    assert topo.distance_matrix[s][t] == pytest.approx(cost)
                    assert topo.next_hop_matrix[s][t] == min(hops)


class TestAgainstIndependentOracles:
    def test_exhaustive_small_unit_graphs(self):
        # every connected graph on up to 5 sites, unit weights
        for n in range(2, 6):
            pairs = list(itertools.combinations(range(n), 2))
            for mask in range(1, 1 << len(pairs)):
                edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
                dist = bfs_distances(n, edges)
                if any(d == INF for row in dist for d in row):
                    continue
                topo = build_topology(n, [(a, b, 1.0) for a, b in edges])
                for s in range(n):
                    for t in range(n):
                        assert topo.distance_matrix[s][t] == dist[s][t]
                        if s != t:
                            h = int(topo.next_hop_matrix[s][t])
                            assert (min(s, h), max(s, h)) in edges or (h, s) in edges
                            assert dist[h][t] == dist[s][t] - 1
                            valid = [
                                v
                                for v in range(n)
                                if ((min(s, v), max(s, v)) in edges) and dist[v][t] == dist[s][t] - 1
                            ]
                            assert h == min(valid)

    def test_sampled_six_site_unit_graphs(self):
        rng = random.Random(20260815)
        pairs = list(itertools.combinations(range(6), 2))
        checked = 0
        while checked < 300:
            mask = rng.getrandbits(len(pairs))
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            dist = bfs_distances(6, edges)
            if any(d == INF for row in dist for d in row):
                continue
            topo = build_topology(6, [(a, b, 1.0) for a, b in edges])
            assert np.array_equal(topo.distance_matrix, np.array(dist))
            checked += 1

    def test_weighted_random_graphs_match_dijkstra(self):
        rng = random.Random(99)
        weights = [0.1, 0.2, 0.3, 0.5, 0.7, 1.0, 1.5, 2.0, 3.0]
        for _ in range(100):
            n = rng.randint(2, 30)
            links = []
            onto = [0]
            for v in range(1, n):
                links.append((v, rng.choice(onto), rng.choice(weights)))
                onto.append(v)
            existing = {(min(a, b), max(a, b)) for a, b, _ in links}
            for a, b in itertools.combinations(range(n), 2):
                if (a, b) not in existing and rng.random() < 0.3:
                    links.append((a, b, rng.choice(weights)))
            topo = build_topology(n, links)
            oracle = dijkstra_distances(n, links)
            assert np.allclose(topo.distance_matrix, np.array(oracle), atol=1e-12)


@st.composite
def connected_weighted_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    order = draw(st.permutations(range(n)))
    links = {}
    weights = st.sampled_from([0.1, 0.2, 0.3, 0.5, 0.7, 1.0, 2.0, 2.5, 4.0])
    for i in range(1, n):
        a, b = order[i], order[draw(st.integers(0, i - 1))]
        links[(min(a, b), max(a, b))] = draw(weights)
    extras = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=8))
    for a, b in extras:
        if a != b and (min(a, b), max(a, b)) not in links:
            links[(min(a, b), max(a, b))] = draw(weights)
    return n, [(a, b, w) for (a, b), w in sorted(links.items())]


class TestRoutingProperties:
    @given(connected_weighted_graphs())
    @settings(max_examples=60)
    def test_metric_properties(self, graph):
        n, links = graph
        topo = build_topology(n, links)
        d = topo.distance_matrix
        assert np.array_equal(d, d.T)
        assert np.all(np.diag(d) == 0)
        off = d[~np.eye(n, dtype=bool)]
        if off.size:
            assert np.all(off > 0)

    @given(connected_weighted_graphs())
    @settings(max_examples=60)
    def test_greedy_descent_follows_shortest_paths(self, graph):
        n, links = graph
        topo = build_topology(n, links)
        dist = topo.distance_matrix.tolist()
        next_hop = topo.next_hop_matrix.tolist()
        weight = {}
        for a, b, w in links:
            weight[(a, b)] = weight[(b, a)] = w
        for s in range(n):
            for t in range(n):
                if s == t:
                    continue
                node, total, hops = s, 0.0, 0
                while node != t:
                    nxt = next_hop[node][t]
                    assert (node, nxt) in weight, "next hop must be a neighbour"
                    # each hop consumes exactly its link weight of the distance
                    assert dist[node][t] == pytest.approx(weight[(node, nxt)] + dist[nxt][t])
                    total += weight[(node, nxt)]
                    node = nxt
                    hops += 1
                    assert hops <= n, "routing loop"
                assert total == pytest.approx(dist[s][t])

    def test_non_dyadic_path_is_exactly_symmetric(self):
        # summed one way 0.1 + 0.2 + 0.3 is 0.6000000000000001, the other way 0.6
        d = build_topology(4, [(0, 1, 0.1), (1, 2, 0.2), (2, 3, 0.3)]).distance_matrix
        assert d[0, 3] == d[3, 0]

    def test_rebuild_is_deterministic(self):
        links = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0), (1, 3, 2.0)]
        a = build_topology(4, links)
        b = build_topology(4, list(reversed(links)))
        assert np.array_equal(a.distance_matrix, b.distance_matrix)
        assert np.array_equal(a.next_hop_matrix, b.next_hop_matrix)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "topo.json"
        path.write_text(json.dumps(reference_topology_dict()))
        loaded = load_topology(path)
        topo = reference_topology()
        assert loaded.n == topo.n
        assert loaded.links == topo.links
        assert np.array_equal(loaded.distance_matrix, topo.distance_matrix)
        assert np.array_equal(loaded.next_hop_matrix, topo.next_hop_matrix)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_topology(tmp_path / "absent.json")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(TopologyError):
            load_topology(path)

    def test_non_object_document(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(TopologyError):
            load_topology(path)

    def test_from_dict_requires_fields(self):
        with pytest.raises(TopologyError):
            topology_from_dict({"links": []})
        with pytest.raises(TopologyError):
            topology_from_dict({"n": 2, "links": "nope"})

    @pytest.mark.parametrize(
        "doc, field",
        [
            ({"n": 3.7, "links": [[0, 1], [1, 2]]}, "topology.n"),
            ({"n": True, "links": []}, "topology.n"),
            ({"n": "3", "links": [[0, 1], [1, 2]]}, "topology.n"),
            ({"n": 3, "links": [[0, 1.9, 1], [1, 2]]}, "topology.links[0][1]"),
            ({"n": 3, "links": [[0, 1], ["1", 2, 1]]}, "topology.links[1][0]"),
            ({"n": 3, "links": [[0, 1], [1, True]]}, "topology.links[1][1]"),
            ({"n": 3, "links": [[0, 1, "heavy"], [1, 2]]}, "topology.links[0][2]"),
            ({"n": 3, "links": [[0, 1, False], [1, 2]]}, "topology.links[0][2]"),
            ({"n": 3, "links": [[0, 1], [1, 2, 1.0, 4]]}, "topology.links[1]"),
            ({"n": 3, "links": [[0], [1, 2]]}, "topology.links[0]"),
            ({"n": 3, "links": [{"a": 0, "b": 1}, [1, 2]]}, "topology.links[0]"),
            ({"n": 3, "links": [[0, 1], [1, 2]], "extra": 5}, "'extra'"),
        ],
        ids=[
            "float-n", "bool-n", "string-n", "float-site", "string-site", "bool-site",
            "string-weight", "bool-weight", "long-link", "short-link", "object-link", "unknown-key",
        ],
    )
    def test_from_dict_is_strict(self, doc, field):
        with pytest.raises(TopologyError) as info:
            topology_from_dict(doc)
        assert field in str(info.value)

    def test_build_coerces_nothing(self):
        with pytest.raises(TopologyError) as info:
            build_topology(3, [(0, 1.9), (1, 2)])
        assert "topology.links[0][1]" in str(info.value)

    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), -float("inf")])
    def test_build_rejects_non_finite_weight(self, weight):
        with pytest.raises(TopologyError, match="weight must be positive and finite") as info:
            build_topology(2, [(0, 1, weight)])
        assert "topology.links[0][2]" in str(info.value)

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_json_number_rejected(self, tmp_path, constant):
        path = tmp_path / "topo.json"
        path.write_text(f'{{"n": 2, "links": [[0, 1, {constant}]]}}')
        with pytest.raises(TopologyError, match="not valid JSON"):
            load_topology(path)

    def test_from_dict_accepts_ints_and_numbers(self):
        topo = topology_from_dict({"n": 3, "links": [[0, 1], [1, 2, 2], [0, 2, 0.5]]})
        assert topo.links == ((0, 1, 1.0), (1, 2, 2.0), (0, 2, 0.5))


class TestIntegerRule:
    """``is_int`` is the one integer test, and every type that owns an integer applies it."""

    @pytest.mark.parametrize("value", [3, -1, 2**70, np.int64(3), np.int32(0), np.uint8(7)])
    def test_ints_and_numpy_ints_are_integers(self, value):
        assert is_int(value)

    @pytest.mark.parametrize("value", [True, np.bool_(True), 3.0, np.float64(3.0), Fraction(3), "3", None])
    def test_bools_floats_and_strings_are_not(self, value):
        assert not is_int(value)

    # Each call passes a number that is not an integer, and the message names the field.
    OWNERS = {
        "workload-active": (lambda: WorkloadSpec(np.array([[0.5, 0.5, 0.0]]), active=(1.7, 2.2)), "active"),
        "oscillation-period": (lambda: Oscillation(0, 1, 2.5), "period"),
        "oscillation-bool-site": (lambda: Oscillation(True, 2, 3), "site_a"),
        "fna-window": (lambda: FnaParams(window=2.5), "window"),
        "fna-history": (lambda: FnaParams(history=1.5), "history"),
        "symmetric-hot": (lambda: symmetric_spec(5, 0.3, hot=1.5), "hot"),
        "symmetric-n": (lambda: symmetric_spec(4.5, 0.3), "n"),
        "chain-t": (lambda: ChainParams(3, 0.5, 2.5), r"\bt\b"),
        "chain-n": (lambda: ChainParams(3.5, 0.5, 2), "n"),
        "policy-t": (lambda: PolicySpec("threshold", t=3.0), r"\bt\b"),
        "policy-counter-cap": (lambda: PolicySpec("nna", counter_cap=True), "counter_cap"),
    }

    @pytest.mark.parametrize("case", list(OWNERS))
    def test_every_owner_refuses_other_numbers(self, case):
        make, field = self.OWNERS[case]
        with pytest.raises(ValueError, match=field):
            make()

    def test_every_owner_takes_numpy_integers(self):
        i = np.int64
        assert PolicySpec("threshold", t=i(3)).t == 3
        assert PolicySpec("nna", counter_cap=i(5)).counter_cap == 5
        assert FnaParams(window=i(5), history=i(2)).window == 5
        assert Oscillation(i(0), i(1), i(4)).period == 4
        assert WorkloadSpec(np.array([[0.5, 0.5]]), active=(i(1),)).active == (1,)
        assert symmetric_spec(i(3), 0.5, hot=i(2))[2] == 0.5
        assert ChainParams(i(3), 0.5, i(2)).t == 2
        assert build_topology(i(2), [(i(0), i(1), i(2))]).distance_matrix[0, 1] == 2.0
