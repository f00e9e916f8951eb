import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ALL_FS, random_graph, square_graph, weighted_ring
from relcentral._batched import TIE_TOL
from relcentral.centrality import vertex_betweenness
from relcentral.errors import TooLargeError, UnknownVertexError
from relcentral.graph import build_graph
from relcentral.oracle import (
    OracleLimits,
    _edge_ids,
    _neighbors,
    all_pairs_shortest_paths,
    brute_betweenness,
    brute_degree,
    brute_harmonic,
    brute_shortest_paths,
    distances_tied,
)
from relcentral.relevance import PRODUCT, RelevanceVector


def _counts_and_distances(g, s):
    found = [brute_shortest_paths(g, s, t) for t in range(g.vertex_count)]
    return [d for d, _ in found], [len(ps) for _, ps in found]


def test_brute_paths_on_square():
    g = square_graph()
    d, paths = brute_shortest_paths(g, "A", "C")
    assert d == 2.0
    assert paths == [(0, 1, 2), (0, 3, 2)]


def test_brute_paths_weighted_prefers_total_weight():
    g = weighted_ring()
    d, paths = brute_shortest_paths(g, "A", "C")
    assert d == pytest.approx(1.5)
    assert paths == [(0, 1, 2)]


def test_brute_distances_and_counts_on_square():
    dist, count = _counts_and_distances(square_graph(), "A")
    assert (dist, count) == ([0.0, 1.0, 2.0, 1.0], [1, 1, 2, 1])


def test_brute_distances_and_counts_on_weighted_ring():
    dist, count = _counts_and_distances(weighted_ring(), "A")
    assert (dist, count) == ([0.0, 0.5, 1.5, 1.0], [1, 1, 1, 1])


def test_oracle_neighbors_sorted_by_index_with_weights():
    g = build_graph([("c", "a", 2.0), ("c", "b", 1.5), ("a", "b", 1.0)])
    assert [g.index_of(x) for x in "cab"] == [0, 1, 2]
    assert _neighbors(g) == [[(1, 2.0), (2, 1.5)], [(0, 2.0), (2, 1.0)], [(0, 1.5), (1, 1.0)]]


def test_oracle_edge_ids_take_indices_in_both_orders():
    g = build_graph([("a", "b"), ("b", "c")])
    ids = _edge_ids(g)
    assert ids[0, 1] == ids[1, 0] == 0
    assert ids[1, 2] == ids[2, 1] == 1
    assert (0, 2) not in ids and len(ids) == 2 * g.edge_count


def test_brute_paths_on_diamond_sorted():
    g = build_graph([("s", "a"), ("s", "b"), ("a", "t"), ("b", "t")])
    si, ai, bi, ti = (g.index_of(x) for x in "sabt")
    assert brute_shortest_paths(g, "s", "t") == (2.0, sorted([(si, ai, ti), (si, bi, ti)]))


def test_float_tie_within_tolerance_counts_both_paths():
    # 0.1 + 0.2 lands a hair above 0.3; the tolerance must absorb it
    g = build_graph([("A", "B", 0.1), ("B", "C", 0.2), ("A", "C", 0.3)])
    assert 0.1 + 0.2 != 0.3
    d, paths = brute_shortest_paths(g, "A", "C")
    assert d == 0.3 and paths == [(0, 1, 2), (0, 2)]
    assert distances_tied(0.1 + 0.2, 0.3)
    assert not distances_tied(0.3 + 2e-12 * 10, 0.3)
    # the engine ties them too: B is on one of the two paths each way
    np.testing.assert_allclose(vertex_betweenness(g).values, [0.0, 1.0, 0.0], rtol=1e-15)


def test_tie_tolerance_is_relative():
    big = 1e6
    assert distances_tied(big, big * (1 + 1e-13))
    assert not distances_tied(1.0, 1.0 + 1e-9)
    assert not distances_tied(1e-13, 2e-13)  # relative below 1 too
    assert TIE_TOL == 1e-12


def test_brute_paths_take_a_label_or_an_index():
    g = square_graph()
    assert brute_shortest_paths(g, "C", "A") == brute_shortest_paths(g, 2, 0)
    for bad in ("nope", 9, -1):
        with pytest.raises(UnknownVertexError):
            brute_shortest_paths(g, bad, "A")


def test_brute_paths_source_equals_target():
    g = square_graph()
    d, paths = brute_shortest_paths(g, "B", "B")
    assert d == 0.0 and paths == [(1,)]


def test_brute_paths_unreachable():
    g = build_graph([("a", "b"), ("c", "d")])
    d, paths = brute_shortest_paths(g, "a", "c")
    assert math.isinf(d) and paths == []
    dist, count = _counts_and_distances(g, "a")
    assert count == [1, 1, 0, 0] and math.isinf(dist[g.index_of("d")])


def test_vertex_limit_enforced():
    g = build_graph([(f"v{i}", f"v{i + 1}") for i in range(13)])
    with pytest.raises(TooLargeError):
        brute_shortest_paths(g, "v0", "v13")
    small = OracleLimits(max_vertices=5)
    with pytest.raises(TooLargeError):
        brute_shortest_paths(square_graph(), "A", "C", OracleLimits(max_vertices=3))
    assert brute_shortest_paths(square_graph(), "A", "C", small)[0] == 2.0


def test_path_budget_enforced():
    # stacked diamonds double the path count at every layer: 2^12 from m0 to m12
    records = []
    for k in range(12):
        records += [
            (f"m{k}", f"u{k}"), (f"m{k}", f"l{k}"),
            (f"u{k}", f"m{k + 1}"), (f"l{k}", f"m{k + 1}"),
        ]
    g = build_graph(records)
    assert g.vertex_count == 37
    with pytest.raises(TooLargeError):
        brute_shortest_paths(g, "m0", "m12", OracleLimits(max_vertices=100, max_paths=1000))
    d, paths = brute_shortest_paths(g, "m0", "m12", OracleLimits(max_vertices=100, max_paths=5000))
    assert d == 24.0 and len(paths) == len(set(paths)) == 4096


def test_all_pairs_covers_both_directions():
    g = weighted_ring()
    ap = all_pairs_shortest_paths(g)
    assert len(ap) == 4 * 3
    d_ab, p_ab = ap[(0, 2)]
    d_ba, p_ba = ap[(2, 0)]
    assert d_ab == d_ba
    assert p_ba == sorted(tuple(reversed(q)) for q in p_ab)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), weighted=st.booleans())
def test_brute_paths_are_valid_shortest_paths(seed, weighted):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, int(rng.integers(3, 9)), weighted)
    u, v = g.edge_endpoints
    wt = {}
    for a, b, w in zip(u.tolist(), v.tolist(), g.edge_weights.tolist()):
        wt[a, b] = wt[b, a] = w
    for t in range(1, g.vertex_count):
        d, paths = brute_shortest_paths(g, 0, t)
        assert paths and len(set(paths)) == len(paths)
        for p in paths:
            assert p[0] == 0 and p[-1] == t
            assert distances_tied(sum(wt[a, b] for a, b in zip(p, p[1:])), d)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), weighted=st.booleans())
def test_brute_paths_equal_networkx_all_shortest_paths(seed, weighted):
    # weights in {0.5, ..., 3} sum exactly, so networkx's exact ties are
    # the ties within TIE_TOL
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(seed)
    g = random_graph(rng, int(rng.integers(3, 9)), weighted)
    G = nx.Graph()
    G.add_nodes_from(range(g.vertex_count))
    u, v = g.edge_endpoints
    G.add_weighted_edges_from(zip(u.tolist(), v.tolist(), g.edge_weights.tolist()))
    for s in range(g.vertex_count):
        dist = nx.single_source_dijkstra_path_length(G, s)
        for t in range(g.vertex_count):
            if s == t:
                continue
            d, paths = brute_shortest_paths(g, s, t)
            assert d == dist[t]
            assert paths == sorted(map(tuple, nx.all_shortest_paths(G, s, t, weight="weight")))


def test_brute_degree_classic_and_weighted_by_relevance():
    g = square_graph()
    R1 = RelevanceVector.ones(4)
    np.testing.assert_allclose(brute_degree(g, R1, PRODUCT), [2, 2, 2, 2])
    R = RelevanceVector(np.array([2.0, 1.0, 1.0, 1.0]))
    np.testing.assert_allclose(brute_degree(g, R, PRODUCT), [4, 3, 2, 3])


def test_brute_harmonic_path_graph():
    # a-b-c: C(a) = 1 + 1/2, C(b) = 2
    g = build_graph([("a", "b"), ("b", "c")])
    R = RelevanceVector.ones(3)
    np.testing.assert_allclose(brute_harmonic(g, R, PRODUCT), [1.5, 2.0, 1.5])


def test_brute_betweenness_path_graph():
    g = build_graph([("a", "b"), ("b", "c")])
    R = RelevanceVector.ones(3)
    vb, eb = brute_betweenness(g, R, PRODUCT)
    # both orders of the (a, c) pair pass through b
    np.testing.assert_allclose(vb, [0.0, 2.0, 0.0])
    # each edge carries its endpoint pairs (2) plus the long pair (2)
    np.testing.assert_allclose(eb, [4.0, 4.0])


def test_brute_betweenness_splits_tied_paths():
    g = build_graph([("s", "a"), ("s", "b"), ("a", "t"), ("b", "t")])
    R = RelevanceVector.ones(4)
    vb, _ = brute_betweenness(g, R, PRODUCT)
    assert vb[g.index_of("a")] == pytest.approx(1.0)
    assert vb[g.index_of("b")] == pytest.approx(1.0)


def test_brute_metrics_accept_all_f_forms():
    g = weighted_ring()
    rng = np.random.default_rng(0)
    R = RelevanceVector(rng.uniform(0.5, 2.0, size=4))
    for f in ALL_FS:
        assert brute_harmonic(g, R, f).shape == (4,)
        vb, eb = brute_betweenness(g, R, f)
        assert vb.shape == (4,) and eb.shape == (g.edge_count,)
