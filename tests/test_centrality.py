import warnings
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ALL_FS,
    PAIRWISE_FS,
    PATH_FS,
    random_graph,
    random_matrix_f,
    random_relevance,
    square_graph,
    weighted_ring,
)
from relcentral import _batched, centrality
from relcentral._batched import BLOCK
from relcentral.centrality import (
    CentralityReport,
    Metric,
    PATH_METRICS,
    _make_report,
    _reports,
    betweenness_reports,
    degree_centrality,
    edge_betweenness,
    harmonic_centrality,
    vertex_betweenness,
)
from relcentral.errors import (
    LengthMismatchError,
    MatrixShapeMismatchError,
    PathVariantNotApplicableError,
    SigmaOverflowError,
)
from relcentral.generators import GeneratorConfig, ring_lattice, watts_strogatz
from relcentral.graph import build_graph
from relcentral.oracle import (
    brute_betweenness,
    brute_degree,
    brute_harmonic,
    brute_shortest_paths,
    distances_tied,
)
from relcentral.relevance import (
    MAX,
    MEAN,
    PATH_PROD,
    PATH_SUM,
    PRODUCT,
    SOURCE_ONLY,
    RelevanceVector,
    matrix_function,
    pair_values,
)

RA2 = RelevanceVector(np.array([2.0, 1.0, 1.0, 1.0]))


# --- golden values on the two four-vertex rings ---


def test_degree_square_classic_and_boosted():
    g = square_graph()
    np.testing.assert_allclose(degree_centrality(g).values, [2, 2, 2, 2])
    np.testing.assert_allclose(degree_centrality(g, RA2, PRODUCT).values, [4, 3, 2, 3])


def test_degree_source_only_square():
    g = square_graph()
    np.testing.assert_allclose(
        degree_centrality(g, RA2, SOURCE_ONLY).values, [4, 2, 2, 2]
    )


def test_square_betweenness_classic():
    g = square_graph()
    vrep, erep = betweenness_reports(g)
    np.testing.assert_allclose(vrep.values, [1, 1, 1, 1], atol=1e-12)
    np.testing.assert_allclose(erep.values, [4, 4, 4, 4], atol=1e-12)


def test_square_betweenness_boosted_vertex_and_edges():
    g = square_graph()
    vrep, erep = betweenness_reports(g, RA2, PRODUCT)
    np.testing.assert_allclose(vrep.values, [1, 2, 1, 2], atol=1e-12)
    by_edge = erep.as_dict()
    assert by_edge[("A", "B")] == pytest.approx(7.0)
    assert by_edge[("A", "D")] == pytest.approx(7.0)
    assert by_edge[("B", "C")] == pytest.approx(5.0)
    assert by_edge[("C", "D")] == pytest.approx(5.0)


def test_weighted_ring_harmonic():
    g = weighted_ring()
    np.testing.assert_allclose(
        harmonic_centrality(g).values, [11 / 3, 11 / 3, 8 / 3, 8 / 3], atol=1e-9
    )
    np.testing.assert_allclose(
        harmonic_centrality(g, RA2, PRODUCT).values,
        [22 / 3, 17 / 3, 10 / 3, 11 / 3],
        atol=1e-9,
    )


def test_weighted_ring_betweenness():
    g = weighted_ring()
    np.testing.assert_allclose(
        vertex_betweenness(g).values, [2, 2, 0, 0], atol=1e-12
    )
    np.testing.assert_allclose(
        vertex_betweenness(g, RA2, PRODUCT).values, [2, 4, 0, 0], atol=1e-12
    )


# --- report mechanics ---


def test_report_metadata_and_ranking():
    g = square_graph()
    rep = degree_centrality(g, RA2, PRODUCT)
    assert rep.metric is Metric.DEGREE and rep.kind == "vertex"
    assert rep.ids == ("A", "B", "C", "D")
    assert rep.f_label == "product"
    assert rep.relevance_source == "explicit"
    assert not rep.weighted
    assert rep.ranking == ("A", "B", "D", "C")  # tie B/D broken by index
    assert rep.value_of("C") == 2.0


@pytest.mark.parametrize("seed", range(3))
def test_ranking_matches_descending_value_then_index_key(seed):
    g = build_graph([(f"v{i}", f"v{i + 1}") for i in range(300)])
    rng = np.random.default_rng(seed)
    for metric, ids in ((Metric.DEGREE, g.labels), (Metric.EDGE_BETWEENNESS, g.edge_labels())):
        values = rng.integers(-2, 3, size=len(ids)).astype(np.float64)
        values[rng.random(len(ids)) < 0.3] = 0.0
        values[rng.random(len(ids)) < 0.3] = -0.0
        rep = _make_report(metric, g, values, PRODUCT, "x")
        order = sorted(range(len(ids)), key=lambda i: (-values[i], i))
        assert rep.order.tolist() == order and not rep.order.flags.writeable
        assert rep.ranking == tuple(ids[i] for i in order)
        assert rep.ids == tuple(ids) and rep.graph is g


def test_report_kind_comes_from_its_metric():
    assert [m.kind for m in Metric] == ["vertex", "vertex", "vertex", "edge"]
    reports = _reports(weighted_ring(), None, PRODUCT, list(Metric))
    assert all(rep.metric is m and rep.kind == m.kind for m, rep in reports.items())


def test_value_of_builds_its_lookup_once(monkeypatch):
    vrep, erep = betweenness_reports(weighted_ring())
    calls, as_dict = [], CentralityReport.as_dict
    monkeypatch.setattr(CentralityReport, "as_dict", lambda rep: calls.append(rep) or as_dict(rep))
    for rep, unknown in ((vrep, "Z"), (erep, ("A", "C"))):
        for element, value in zip(rep.ids, rep.values.tolist()):
            assert rep.value_of(element) == value
        with pytest.raises(KeyError):
            rep.value_of(unknown)
    assert calls == [vrep, erep]


def test_report_defaults_to_uniform_source():
    rep = degree_centrality(square_graph())
    assert rep.relevance_source == "uniform"
    rep2 = degree_centrality(square_graph(), relevance_source="override")
    assert rep2.relevance_source == "override"


def test_report_values_read_only():
    rep = degree_centrality(square_graph())
    with pytest.raises(ValueError):
        rep.values[0] = 99.0


def test_reports_compare_without_raising():
    g = square_graph()
    rep, other = degree_centrality(g), degree_centrality(g)
    assert np.array_equal(rep.values, other.values)
    assert rep == rep
    assert rep != other  # by identity


def test_edge_report_ids_are_label_pairs():
    g = weighted_ring()
    erep = edge_betweenness(g)
    assert erep.kind == "edge"
    assert erep.ids[0] == ("A", "B")
    assert erep.weighted


def test_relevance_length_mismatch():
    with pytest.raises(LengthMismatchError):
        degree_centrality(square_graph(), RelevanceVector.ones(3))


@pytest.mark.parametrize("F", [np.zeros((2, 2)), np.ones((6, 6)) - np.eye(6)], ids=["2x2", "6x6"])
def test_matrix_f_of_another_size_is_refused_before_any_work(monkeypatch, F):
    g = build_graph([("a", "b"), ("b", "c"), ("c", "d")])
    monkeypatch.setattr(centrality, "sweep", lambda *args: pytest.fail("a sweep ran"))
    f = matrix_function(F)
    for metric in (degree_centrality, harmonic_centrality, vertex_betweenness, edge_betweenness):
        with pytest.raises(MatrixShapeMismatchError, match="for a 4-vertex graph"):
            metric(g, None, f)


def test_degree_rejects_path_variants():
    for f in (PATH_SUM, PATH_PROD):
        with pytest.raises(PathVariantNotApplicableError):
            degree_centrality(square_graph(), RA2, f)


def test_trivial_graphs_do_not_crash():
    g1 = build_graph([("a",)])
    assert harmonic_centrality(g1).values[0] == 0.0
    assert vertex_betweenness(g1).values[0] == 0.0
    g2 = build_graph([("a", "b")])
    np.testing.assert_allclose(harmonic_centrality(g2).values, [1.0, 1.0])
    np.testing.assert_allclose(edge_betweenness(g2).values, [2.0])


def test_unreachable_pairs_contribute_zero():
    g = build_graph([("a", "b"), ("c", "d")])
    np.testing.assert_allclose(harmonic_centrality(g).values, [1, 1, 1, 1])
    np.testing.assert_allclose(vertex_betweenness(g).values, [0, 0, 0, 0])


# --- engines agree with the enumeration oracle ---


def _split_graph(rng, weighted: bool):
    """Two random components and an isolated vertex, 12 vertices: most
    ordered pairs reach each other by no path."""
    records = [(p + x, p + y, w) for p, k in (("a", 6), ("b", 5))
               for x, y, w in random_graph(rng, k, weighted).edge_records()]
    return build_graph(records, vertices=["isolated"])


@pytest.mark.parametrize("seed", [*range(6), "split-unit", "split-weighted"])
def test_fast_engines_match_oracle(seed):
    if isinstance(seed, int):
        rng = np.random.default_rng(1000 + seed)
        g = random_graph(rng, int(rng.integers(4, 10)), weighted=bool(seed % 2))
    else:
        rng = np.random.default_rng(len(seed))
        g = _split_graph(rng, weighted=seed == "split-weighted")
        assert g.weighted == (seed == "split-weighted") and g.vertex_count == 12
    n = g.vertex_count
    R = random_relevance(rng, n)
    fs = ALL_FS + (random_matrix_f(rng, n),)
    for f in fs:
        vb_o, eb_o = brute_betweenness(g, R, f)
        vrep, erep = betweenness_reports(g, R, f)
        np.testing.assert_allclose(vrep.values, vb_o, atol=1e-9)
        np.testing.assert_allclose(erep.values, eb_o, atol=1e-9)
        np.testing.assert_allclose(
            harmonic_centrality(g, R, f).values, brute_harmonic(g, R, f), atol=1e-9
        )
        if f.variant.is_pairwise:
            np.testing.assert_allclose(
                degree_centrality(g, R, f).values, brute_degree(g, R, f), atol=1e-12
            )


def test_all_ones_relevance_reduces_to_classic():
    rng = np.random.default_rng(5)
    g = random_graph(rng, 30, weighted=False)
    classic_v = vertex_betweenness(g).values
    classic_h = harmonic_centrality(g).values
    R1 = RelevanceVector.ones(30)
    for f in PAIRWISE_FS + (PATH_PROD,):
        np.testing.assert_allclose(
            vertex_betweenness(g, R1, f).values, classic_v, atol=1e-12
        )
        np.testing.assert_allclose(
            harmonic_centrality(g, R1, f).values, classic_h, atol=1e-12
        )


def test_source_only_is_row_scaling():
    rng = np.random.default_rng(9)
    g = random_graph(rng, 25, weighted=True)
    R = random_relevance(rng, 25)
    base_d = degree_centrality(g).values
    base_h = harmonic_centrality(g).values
    np.testing.assert_allclose(
        degree_centrality(g, R, SOURCE_ONLY).values, R.values * base_d, atol=1e-12
    )
    np.testing.assert_allclose(
        harmonic_centrality(g, R, SOURCE_ONLY).values, R.values * base_h, atol=1e-9
    )


def test_constant_relevance_scales_product_metrics():
    rng = np.random.default_rng(11)
    g = random_graph(rng, 20, weighted=False)
    c = 7.0
    Rc = RelevanceVector(np.full(20, c))
    base = vertex_betweenness(g)
    scaled = vertex_betweenness(g, Rc, PRODUCT)
    np.testing.assert_allclose(scaled.values, c * c * base.values, rtol=1e-9)
    assert scaled.ranking == base.ranking


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), weighted=st.booleans())
def test_total_edge_minus_vertex_credit_is_pair_mass(seed, weighted):
    # every shortest path carries one more edge than interior vertices,
    # so the totals differ by exactly the sum of pair values
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 12))
    g = random_graph(rng, n, weighted)
    R = random_relevance(rng, n)
    vrep, erep = betweenness_reports(g, R, PRODUCT)
    # random_graph is connected, so every ordered pair contributes
    pair_mass = sum(R[s] * R[t] for s in range(n) for t in range(n) if s != t)
    assert erep.values.sum() - vrep.values.sum() == pytest.approx(pair_mass, rel=1e-9)


def test_workers_do_not_change_results():
    rng = np.random.default_rng(3)
    for weighted in (False, True):
        n = 150 if not weighted else 70  # spans several batches / chunks
        g = random_graph(rng, n, weighted)
        R = random_relevance(rng, n)
        for f in (PRODUCT, PATH_SUM):
            v1, e1 = betweenness_reports(g, R, f, workers=1)
            v4, e4 = betweenness_reports(g, R, f, workers=4)
            assert v1.values.tobytes() == v4.values.tobytes()
            assert e1.values.tobytes() == e4.values.tobytes()
            h1 = harmonic_centrality(g, R, f, workers=1)
            h4 = harmonic_centrality(g, R, f, workers=4)
            assert h1.values.tobytes() == h4.values.tobytes()


def test_weighted_workers_do_not_change_results_across_blocks():
    rng = np.random.default_rng(17)
    n = BLOCK + 44
    g = random_graph(rng, n, weighted=True)
    R = random_relevance(rng, n)
    for f in (PRODUCT, PATH_SUM):
        one = _reports(g, R, f, PATH_METRICS, 1).values()
        for workers in (2, 4):
            for a, b in zip(one, _reports(g, R, f, PATH_METRICS, workers).values()):
                assert a.values.tobytes() == b.values.tobytes()


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("f", [PRODUCT, PATH_PROD], ids=["pairwise", "path"])
def test_shared_sweep_harmonic_matches_harmonic_alone(weighted, f):
    rng = np.random.default_rng(23)
    g = random_graph(rng, 40, weighted)
    R = random_relevance(rng, 40)
    hrep, vrep, erep = _reports(g, R, f, PATH_METRICS, 1).values()
    alone = harmonic_centrality(g, R, f)
    assert hrep.values.tobytes() == alone.values.tobytes()
    v, e = betweenness_reports(g, R, f)
    assert vrep.values.tobytes() == v.values.tobytes()
    assert erep.values.tobytes() == e.values.tobytes()


def _reweighted(g, weight: float):
    # vertices= keeps every index, and isolated vertices, where they were
    return build_graph([(a, b, weight) for a, b, _ in g.edge_records()], vertices=g.labels)


def _assert_uniform_weight_matches_unweighted(g1, R):
    g2 = _reweighted(g1, 2.0)
    assert g2.weighted and not g1.weighted
    for f in ALL_FS:
        h1, v1, e1 = _reports(g1, R, f, PATH_METRICS, 1).values()
        h2, v2, e2 = _reports(g2, R, f, PATH_METRICS, 1).values()
        np.testing.assert_allclose(v2.values, v1.values, rtol=1e-12)
        np.testing.assert_allclose(e2.values, e1.values, rtol=1e-12)
        np.testing.assert_allclose(h2.values, h1.values / 2.0, rtol=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_uniform_weight_two_matches_unweighted_engine(seed):
    rng = np.random.default_rng(40 + seed)
    n = int(rng.integers(8, 60))
    _assert_uniform_weight_matches_unweighted(
        random_graph(rng, n, weighted=False), random_relevance(rng, n)
    )


def test_uniform_weight_two_diamond_chain_matches_unweighted():
    # sigma reaches 2^60, past the float64 integer range
    g = _diamond_chain(60)
    _assert_uniform_weight_matches_unweighted(
        g, random_relevance(np.random.default_rng(7), g.vertex_count)
    )


def _two_components_and_isolated():
    a = watts_strogatz(GeneratorConfig(n=150, d=6, p=0.2, seed=9))
    b = ring_lattice(90, 4)
    records = [("a" + x, "a" + y) for x, y in a.edge_labels()]
    records += [("b" + x, "b" + y) for x, y in b.edge_labels()]
    return build_graph(records, vertices=["isolated"])


# beyond the oracle's 12 vertices: a deep ring (many top-down BFS steps),
# a low-diameter WS graph (a bottom-up step) and a disconnected graph
BEYOND_ORACLE = {
    "ring600": lambda: ring_lattice(600, 4),
    "ws300": lambda: watts_strogatz(GeneratorConfig(n=300, d=10, p=1.0, seed=4)),
    "split": _two_components_and_isolated,
}


@pytest.mark.parametrize("name", BEYOND_ORACLE)
def test_classic_metrics_match_networkx(name):
    nx = pytest.importorskip("networkx")
    g = BEYOND_ORACLE[name]()
    G = nx.Graph()
    G.add_nodes_from(range(g.vertex_count))
    u, v = g.edge_endpoints
    G.add_edges_from(zip(u.tolist(), v.tolist()))
    h, vb, eb = _reports(g, None, PRODUCT, PATH_METRICS, 1).values()
    want_h = nx.harmonic_centrality(G)
    want_vb = nx.betweenness_centrality(G, normalized=False)
    want_eb = {frozenset(e): x for e, x in nx.edge_betweenness_centrality(G, normalized=False).items()}
    nodes = range(g.vertex_count)
    np.testing.assert_allclose(h.values, [want_h[i] for i in nodes], rtol=1e-9)
    # relcentral sums over ordered pairs, networkx over unordered ones
    np.testing.assert_allclose(vb.values, [2 * want_vb[i] for i in nodes], rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(
        eb.values, [2 * want_eb[frozenset(e)] for e in zip(u.tolist(), v.tolist())], rtol=1e-9
    )


def _random_weights(g, seed: int, weights=None):
    """g with every weight drawn from U(0.5, 2), or from ``weights``."""
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.5, 2.0, g.edge_count) if weights is None else rng.choice(weights, g.edge_count)
    records = [(a, b, float(x)) for (a, b), x in zip(g.edge_labels(), w)]
    return build_graph(records, vertices=g.labels)


def _weighted_split():
    a = watts_strogatz(GeneratorConfig(n=250, d=6, p=0.3, seed=11))
    b = ring_lattice(150, 4)
    records = [("a" + x, "a" + y) for x, y in a.edge_labels()]
    records += [("b" + x, "b" + y) for x, y in b.edge_labels()]
    return _random_weights(build_graph(records, vertices=["isolated"]), 3)


# weighted graphs beyond the oracle's 12 vertices: continuous weights, a
# disconnected graph with an isolated vertex, weights in {1, 2}, whose
# tied path lengths exercise the TIE_TOL rule, and weights over three
# decades on a deep graph, where rounds take the nearest quarter
WEIGHTED_BEYOND_ORACLE = {
    "ws400": lambda: _random_weights(watts_strogatz(GeneratorConfig(n=400, d=10, p=1.0, seed=5)), 1),
    "split": _weighted_split,
    "ring300_1or2": lambda: _random_weights(ring_lattice(300, 6), 2, weights=[1.0, 2.0]),
    "ring300_wide": lambda: _random_weights(ring_lattice(300, 6), 4, weights=np.geomspace(1e-3, 1.0, 50)),
}


@pytest.mark.parametrize("seed", range(6))
def test_the_tie_rule_is_relative_at_every_length_scale(seed):
    # weights times a power of two scale every path length exactly, so the
    # same lengths tie: betweenness keeps its bytes and harmonic scales
    rng = np.random.default_rng(seed)
    g = random_graph(rng, 9, True)
    R = random_relevance(rng, 9)
    for f in ALL_FS:
        h, vb, eb = (r.values for r in _reports(g, R, f, PATH_METRICS).values())
        for x in (2.0 ** -45, 2.0 ** 45):
            scaled = build_graph([(a, b, w * x) for a, b, w in g.edge_records()])
            hx, vbx, ebx = (r.values for r in _reports(scaled, R, f, PATH_METRICS).values())
            assert vbx.tobytes() == vb.tobytes() and ebx.tobytes() == eb.tobytes(), (f.label, x)
            assert hx.tobytes() == (h / x).tobytes(), (f.label, x)


@pytest.mark.parametrize("name", WEIGHTED_BEYOND_ORACLE)
def test_weighted_classic_metrics_match_networkx(name):
    nx = pytest.importorskip("networkx")
    g = WEIGHTED_BEYOND_ORACLE[name]()
    assert g.weighted
    G = nx.Graph()
    G.add_nodes_from(range(g.vertex_count))
    u, v = g.edge_endpoints
    G.add_weighted_edges_from(zip(u.tolist(), v.tolist(), g.edge_weights.tolist()))
    h, vb, eb = _reports(g, None, PRODUCT, PATH_METRICS, 1).values()
    want_h = nx.harmonic_centrality(G, distance="weight")
    want_vb = nx.betweenness_centrality(G, normalized=False, weight="weight")
    want_eb = {frozenset(e): x for e, x in
               nx.edge_betweenness_centrality(G, normalized=False, weight="weight").items()}
    nodes = range(g.vertex_count)
    np.testing.assert_allclose(h.values, [want_h[i] for i in nodes], rtol=1e-9)
    np.testing.assert_allclose(vb.values, [2 * want_vb[i] for i in nodes], rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(
        eb.values, [2 * want_eb[frozenset(e)] for e in zip(u.tolist(), v.tolist())], rtol=1e-9
    )


@pytest.mark.parametrize("name", WEIGHTED_BEYOND_ORACLE)
def test_block_distances_equal_dijkstra(name):
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    g = WEIGHTED_BEYOND_ORACLE[name]()
    n = g.vertex_count
    u, v = g.edge_endpoints
    W = np.zeros((n, n))
    W[u, v] = W[v, u] = g.edge_weights
    want = csgraph.dijkstra(W, directed=False)
    for start in range(0, n, BLOCK):
        S = np.arange(start, min(start + BLOCK, n))
        got = _batched._distances(g, S).reshape(len(S), n)
        assert got.tobytes() == want[S].tobytes()


@pytest.mark.parametrize("name", BEYOND_ORACLE)
def test_uniform_weight_two_matches_unweighted_beyond_oracle_sizes(name):
    g = BEYOND_ORACLE[name]()
    _assert_uniform_weight_matches_unweighted(
        g, random_relevance(np.random.default_rng(len(name)), g.vertex_count)
    )


def test_bfs_takes_both_directions(monkeypatch):
    steps = []
    for direction in ("_top_down", "_bottom_up"):
        def spy(*args, _step=getattr(_batched, direction), _name=direction):
            steps.append(_name)
            return _step(*args)

        monkeypatch.setattr(_batched, direction, spy)
    g = BEYOND_ORACLE["ws300"]()
    _batched.block(g, RelevanceVector.ones(g.vertex_count), PRODUCT, np.arange(BLOCK), True, True)
    assert {"_top_down", "_bottom_up"} == set(steps)
    steps.clear()
    g = BEYOND_ORACLE["ring600"]()
    _batched.block(g, RelevanceVector.ones(g.vertex_count), PRODUCT, np.arange(BLOCK), True, True)
    assert steps.count("_top_down") > 100  # diameter 150


# --- one source's DAG, as the engine lays it out ---


def _one_source_dag(g, s, front_end):
    """Per vertex: distance, path count and level from source s alone,
    and the DAG arcs as (tail, head, edge id), read from ``out`` and,
    without edge ids, from ``into``."""
    dag = front_end(g, np.array([s]))
    n, eid = g.vertex_count, g.neighbor_csr[2]
    at = np.repeat(np.arange(len(dag.cut) - 1), np.diff(dag.cut))
    dist, sigma, level = np.full(n, np.inf), np.zeros(n), np.full(n, -1)
    dist[dag.node] = at if dag.dist is None else dag.dist
    counts, ex = _batched._path_counts(dag)
    assert ex is None
    sigma[dag.node] = counts
    level[dag.node] = at
    out, into = set(), set()
    for k, (tail, base, head, slot) in enumerate(dag.out):
        t, h = dag.node[dag.cut[k] + tail], dag.node[base + head]
        out |= set(zip(t.tolist(), h.tolist(), eid[slot].tolist()))
    for k, (base, tail, head) in enumerate(dag.into, 1):
        t, h = dag.node[base + tail], dag.node[dag.cut[k] + head]
        into |= set(zip(t.tolist(), h.tolist()))
    assert into == {(t, h) for t, h, _ in out}
    assert dag.node[0] == s
    return dist, sigma, level, out


@pytest.mark.parametrize("graph, front_end, dist, count", [
    (square_graph, "_bfs", [0, 1, 2, 1], [1, 1, 2, 1]),
    (square_graph, "_by_distance", [0, 1, 2, 1], [1, 1, 2, 1]),
    (weighted_ring, "_by_distance", [0, 0.5, 1.5, 1.0], [1, 1, 1, 1]),
])
def test_engine_dag_distances_and_counts(graph, front_end, dist, count):
    d, sigma, _, _ = _one_source_dag(graph(), 0, getattr(_batched, front_end))
    assert d.tolist() == dist and sigma.tolist() == count


@pytest.mark.parametrize("front_end", ["_bfs", "_by_distance"])
def test_engine_dag_preds_and_sigma_consistency(front_end):
    g = build_graph([("s", "a"), ("s", "b"), ("a", "t"), ("b", "t")])
    si, ai, bi, ti = (g.index_of(x) for x in "sabt")
    _, sigma, _, arcs = _one_source_dag(g, si, getattr(_batched, front_end))
    assert sigma[ti] == 2
    u, v = g.edge_endpoints
    edge = {frozenset(p): k for k, p in enumerate(zip(u.tolist(), v.tolist()))}
    assert {(t, e) for t, h, e in arcs if h == ti} == {
        (ai, edge[frozenset((ai, ti))]), (bi, edge[frozenset((bi, ti))])}
    assert {(t, e) for t, h, e in arcs if h == ai} == {(si, edge[frozenset((si, ai))])}


def test_engine_dag_arcs_climb_in_distance_and_level():
    g = weighted_ring()
    dist, _, level, arcs = _one_source_dag(g, g.index_of("B"), _batched._by_distance)
    assert level[g.index_of("B")] == 0 and dist[g.index_of("B")] == 0.0
    assert arcs and all(dist[t] < dist[h] and level[t] < level[h] for t, h, _ in arcs)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), weighted=st.booleans())
def test_engine_dag_matches_oracle_shortest_paths(seed, weighted):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, int(rng.integers(3, 9)), weighted)
    s = int(rng.integers(0, g.vertex_count))
    front_end = _batched._by_distance if g.weighted else _batched._bfs
    dist, sigma, _, arcs = _one_source_dag(g, s, front_end)
    steps = set()
    for t in range(g.vertex_count):
        d, paths = brute_shortest_paths(g, s, t)
        assert distances_tied(dist[t], d) and sigma[t] == len(paths)
        steps |= {q for p in paths for q in zip(p, p[1:])}
    assert {(t, h) for t, h, _ in arcs} == steps


def _bfs_layout(g, s):
    """Source s's levels as {vertex: distance} and its DAG arcs as
    (tail, head, edge id), from a plain queue BFS."""
    indptr, nbr, eid = g.neighbor_csr
    dist, queue = {s: 0}, deque([s])
    while queue:
        x = queue.popleft()
        for y in nbr[indptr[x]:indptr[x + 1]].tolist():
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    u, v = g.edge_endpoints
    arcs = set()
    for a, c, e in zip(u.tolist(), v.tolist(), range(g.edge_count)):
        for t, h in ((a, c), (c, a)):
            if t in dist and dist.get(h) == dist[t] + 1:
                arcs.add((t, h, e))
    return dist, arcs


def _block_layouts(g, S):
    """Per source of the block, its levels and arcs as ``_bfs`` lays them
    out, checking on the way that each level lists its flat nodes in
    ascending order and that ``into`` holds the arcs of ``out``."""
    dag = _batched._bfs(g, np.asarray(S))
    n, eid = g.vertex_count, g.neighbor_csr[2]
    levels, arcs = [{} for _ in S], [set() for _ in S]
    for k in range(len(dag.cut) - 1):
        nodes = dag.node[dag.cut[k]:dag.cut[k + 1]]
        assert (np.diff(nodes) > 0).all(), k
        for x in nodes.tolist():
            levels[x // n][x % n] = k
    out, into = set(), set()
    for k, (tail, base, head, slot) in enumerate(dag.out):
        t, h = dag.node[dag.cut[k] + tail], dag.node[base + head]
        out |= set(zip(t.tolist(), h.tolist()))
        for p, w, e in zip(t.tolist(), h.tolist(), eid[slot].tolist()):
            assert p // n == w // n
            arcs[p // n].add((p % n, w % n, e))
    for k, (base, tail, head) in enumerate(dag.into, 1):
        t, h = dag.node[base + tail], dag.node[dag.cut[k] + head]
        into |= set(zip(t.tolist(), h.tolist()))
    assert into == out
    return levels, arcs


def _assert_block_layout_is_per_source(g, S):
    levels, arcs = _block_layouts(g, S)
    for i, s in enumerate(S):
        alone = _block_layouts(g, [s])
        assert (levels[i], arcs[i]) == (alone[0][0], alone[1][0]), s
        assert (levels[i], arcs[i]) == _bfs_layout(g, s), s


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 14), isolated=st.integers(0, 3),
       density=st.sampled_from([0.0, 0.15, 0.4, 1.0]))
def test_block_layout_equals_each_sources_own(seed, n, isolated, density):
    rng = np.random.default_rng(seed)
    labels = [f"v{i}" for i in range(n + isolated)]
    records = [(labels[a], labels[c]) for a in range(n) for c in range(a + 1, n)
               if rng.random() < density]
    g = build_graph(records, vertices=labels)
    b = int(rng.integers(1, g.vertex_count + 1))
    _assert_block_layout_is_per_source(g, rng.permutation(g.vertex_count)[:b].tolist())


@pytest.mark.parametrize("name, scans", [("ws300", True), ("ring600", False)])
def test_block_layout_equals_each_sources_own_beyond_oracle(monkeypatch, name, scans):
    """ws300's dense levels find their new nodes by a scan of the block,
    ring600's thin ones by a sort; both lay out each source as alone."""
    scanned = []

    def spy(g, level, *args, _step=_batched._top_down):
        step = _step(g, level, *args)
        scanned.append(_batched._SCAN * len(step[1]) >= len(level))
        return step

    monkeypatch.setattr(_batched, "_top_down", spy)
    g = BEYOND_ORACLE[name]()
    _assert_block_layout_is_per_source(g, list(range(BLOCK)))
    assert scanned and any(scanned) == scans


def _by_label(values, ids):
    return {frozenset(i) if isinstance(i, tuple) else i: x for i, x in zip(ids, values.tolist())}


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), weighted=st.booleans())
def test_path_metrics_follow_relabelling_and_weight_scaling(seed, weighted):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 151))
    ends = np.sort(rng.integers(0, n, size=(2 * n, 2)), axis=1)
    keys = np.unique(ends[:, 0] * n + ends[:, 1])
    a, b = keys // n, keys % n
    keep = a != b
    labels = [f"v{i}" for i in range(n)]
    w = rng.uniform(0.5, 2.0, size=keep.sum()) if weighted else np.ones(keep.sum())
    records = [(labels[i], labels[j], float(x)) for i, j, x in zip(a[keep], b[keep], w)]
    g = build_graph(records, vertices=labels)  # some vertices may be isolated
    R = RelevanceVector(rng.uniform(0.5, 4.0, size=n))

    # new internal indices, edge order and endpoint order; values follow the labels
    shuffled = [records[i] for i in rng.permutation(len(records))]
    shuffled = [(y, x, c) if rng.random() < 0.5 else (x, y, c) for x, y, c in shuffled]
    g2 = build_graph(shuffled, vertices=[labels[i] for i in rng.permutation(n)])
    R2 = RelevanceVector.from_mapping(g2, dict(zip(labels, R.values)))
    # every weight times c: the same shortest paths, every distance times c;
    # unit weights run on BFS levels, the scaled ones on distances
    scaled = {c: build_graph([(x, y, c * z) for x, y, z in records], vertices=labels)
              for c in (0.5, 3.0)}
    for f in ALL_FS:
        reports = _reports(g, R, f, PATH_METRICS, 1).values()
        for rep, rep2 in zip(reports, _reports(g2, R2, f, PATH_METRICS, 1).values()):
            got, want = _by_label(rep2.values, rep2.ids), _by_label(rep.values, rep.ids)
            assert got.keys() == want.keys()
            np.testing.assert_allclose([got[k] for k in want], list(want.values()), rtol=1e-12)
        h, vb, eb = reports
        for c, gc in scaled.items():
            hc, vc, ec = _reports(gc, R, f, PATH_METRICS, 1).values()
            np.testing.assert_allclose(hc.values, h.values / c, rtol=1e-12)
            np.testing.assert_allclose(vc.values, vb.values, rtol=1e-12)
            np.testing.assert_allclose(ec.values, eb.values, rtol=1e-12)


@pytest.mark.parametrize("f", [PRODUCT, MEAN, SOURCE_ONLY, MAX])
def test_degree_equals_one_bincount_over_both_arcs_bit_for_bit(f):
    g = watts_strogatz(GeneratorConfig(n=600, d=10, p=0.5, seed=3))
    R = RelevanceVector(np.random.default_rng(4).uniform(0.5, 4.0, size=g.vertex_count))
    u, v = g.edge_endpoints
    s, t = np.concatenate([u, v]), np.concatenate([v, u])
    want = np.bincount(s, weights=pair_values(f, s, t, R), minlength=g.vertex_count)
    np.testing.assert_array_equal(degree_centrality(g, R, f).values, want)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_degree_matches_matrix_forms_beyond_oracle_sizes(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(150, 400))
    ends = np.sort(rng.integers(0, n, size=(3 * n, 2)), axis=1)
    keys = np.unique(ends[:, 0] * n + ends[:, 1])
    a, b = keys // n, keys % n
    keep = a != b
    labels = [f"v{i}" for i in range(n)]
    records = [(labels[i], labels[j], float(w)) for i, j, w in
               zip(a[keep], b[keep], rng.uniform(0.5, 2.0, size=keep.sum()))]
    g = build_graph(records, vertices=labels)  # index i is label v{i}; some isolated
    sparse = pytest.importorskip("scipy.sparse")
    indptr, nbr, _ = g.neighbor_csr
    A = sparse.csr_array((np.ones(len(nbr)), nbr, indptr), shape=(n, n))
    R = RelevanceVector(rng.uniform(0.5, 4.0, size=n))
    # sparse-array reductions return (n,) or (n, 1) by scipy version
    r, deg = R.values, np.asarray(A.sum(axis=1)).ravel()
    F = rng.uniform(0.1, 3.0, size=(n, n))
    np.fill_diagonal(F, 0.0)
    expected = {
        PRODUCT: r * (A @ r),
        SOURCE_ONLY: r * deg,
        MEAN: (r * deg + A @ r) / 2.0,
        "matrix": np.asarray((A * F).sum(axis=1)).ravel(),
    }
    for f, want in expected.items():
        f = matrix_function(F) if f == "matrix" else f
        got = degree_centrality(g, R, f).values
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        np.testing.assert_allclose(got, brute_degree(g, R, f), rtol=0, atol=1e-12)
    np.testing.assert_array_equal(degree_centrality(g).values, deg)

    # reordered records give new internal indices; values follow the labels
    shuffled = [records[i] for i in rng.permutation(len(records))]
    shuffled = [(y, x, w) if rng.random() < 0.5 else (x, y, w) for x, y, w in shuffled]
    g2 = build_graph(shuffled, vertices=labels[::-1])
    R2 = RelevanceVector.from_mapping(g2, dict(zip(labels, r)))
    got1 = degree_centrality(g, R, PRODUCT).as_dict()
    got2 = degree_centrality(g2, R2, PRODUCT).as_dict()
    assert got2 == pytest.approx(got1, rel=1e-12, abs=0)


# --- overflow guards ---


def _diamond_chain(k: int, weight: float = 1.0):
    records = []
    for i in range(k):
        records += [
            (f"m{i}", f"u{i}", weight), (f"m{i}", f"l{i}", weight),
            (f"u{i}", f"m{i + 1}", weight), (f"l{i}", f"m{i + 1}", weight),
        ]
    return build_graph(records)


def _bipartite_stack(width: int, depth: int, weight: float = 1.0):
    records = []
    for lay in range(depth - 1):
        for a in range(width):
            for b in range(width):
                records.append((f"x{lay}_{a}", f"x{lay + 1}_{b}", weight))
    return build_graph(records)


def _spy_on_scaled_counts(monkeypatch) -> list:
    """Records, per block that counts paths, whether a count reached
    2**SCALE, so that the block made exponents."""
    calls, path_counts = [], _batched._path_counts

    def spy(dag):
        sigma, ex = path_counts(dag)
        calls.append(ex is not None)
        return sigma, ex

    monkeypatch.setattr(_batched, "_path_counts", spy)
    return calls


# sigma reaches 2^1100 (the chains) or 20^238 (the stack)
PAST_FLOAT64 = {
    "chain": lambda: _diamond_chain(1100),
    "chain_w2": lambda: _diamond_chain(1100, weight=2.0),
    "stack": lambda: _bipartite_stack(20, 240),
}


@pytest.mark.parametrize("name", PAST_FLOAT64)
def test_uniform_path_f_past_float64_counts_stays_finite(monkeypatch, name):
    # a mean path product or sum of uniform relevance stays in float64 range
    g = PAST_FLOAT64[name]()
    R, S = RelevanceVector.ones(g.vertex_count), np.array([0, 1])
    calls = _spy_on_scaled_counts(monkeypatch)
    _, classic, _ = _batched.block(g, R, PRODUCT, S, True, True)
    assert classic.max() > 0
    for f in PATH_FS:
        h, v, e = _batched.block(g, R, f, S, True, True)
        assert np.all(np.isfinite(h)) and np.all(np.isfinite(v)) and np.all(np.isfinite(e))
        if f is PATH_PROD:  # every path product is 1
            np.testing.assert_allclose(v, classic, rtol=1e-12)
    assert calls == [True] * 3


def test_batched_sigma_overflow_detected():
    # R = 4 on every vertex: path products reach 4^601 on the 300-chain,
    # which path-prod reports, without a numpy warning
    g = _diamond_chain(300)
    R = RelevanceVector(np.full(g.vertex_count, 4.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SigmaOverflowError):
            vertex_betweenness(g, R, PATH_PROD)


# d(c, b) + 1 rounds back to d(c, b), so from c the arc b -> a ties
# nothing and a joins no level; d(a, d) = 2e308 + 1 is past float64
FLOAT64_ROUNDING = [("a", "b", 1.0), ("b", "c", 1e17)]
FLOAT64_OVERFLOW = [("a", "b", 1.0), ("b", "c", 1e308), ("c", "d", 1e308)]


@pytest.mark.parametrize("edges", [FLOAT64_ROUNDING, FLOAT64_OVERFLOW])
@pytest.mark.parametrize("harmonic, betweenness", [(True, True), (True, False), (False, True)])
def test_path_lengths_float64_cannot_hold_raise(edges, harmonic, betweenness):
    g = build_graph(edges)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SigmaOverflowError, match="float64"):
            on = (harmonic, betweenness, betweenness)
            _reports(g, None, PRODUCT, [m for m, x in zip(PATH_METRICS, on) if x])


def test_path_lengths_just_inside_float64_are_kept():
    # the farthest distance plus the heaviest weight stays below the float64
    # maximum (the star's weights sum past it), and d(a, c) = 1e15 + 1 is
    # exact: no refusal, no warning, the oracle's values
    star = [("h", f"l{i}", 1e307) for i in range(10)]
    for edges in (star, [("a", "b", 4e307), ("b", "c", 4e307)],
                  [("a", "b", 1.0), ("b", "c", 1e15)]):
        g = build_graph(edges)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h, v, _ = _reports(g, None, PRODUCT, PATH_METRICS, 1).values()
        R = RelevanceVector.ones(g.vertex_count)
        assert v.values.tolist() == brute_betweenness(g, R, PRODUCT)[0].tolist()
        np.testing.assert_allclose(h.values, brute_harmonic(g, R, PRODUCT), rtol=1e-15)


def test_batched_deep_block_matches_weight_two():
    # sigma reaches 2^1100 at unit weight: the block scales its counts
    # and answers as at weight 2.0, for pairwise f and path sums
    g1, g2 = _diamond_chain(1100), _diamond_chain(1100, weight=2.0)
    R = random_relevance(np.random.default_rng(8), g1.vertex_count)
    S = np.array([0, 5])
    for f in PAIRWISE_FS[:2] + (PATH_SUM,):
        h1, v1, e1 = _batched.block(g1, R, f, S, True, True)
        h2, v2, e2 = _batched.block(g2, R, f, S, True, True)
        np.testing.assert_array_equal(v1, v2)
        np.testing.assert_array_equal(e1, e2)
        np.testing.assert_array_equal(h1, 2.0 * h2)
        assert v1.max() > 0


def test_unit_weight_block_never_builds_the_distance_dag(monkeypatch):
    # the 1100-chain too, whose counts pass float64 range
    calls, by_distance = [], _batched._by_distance
    monkeypatch.setattr(_batched, "_by_distance",
                        lambda *args: calls.append(args) or by_distance(*args))
    g = _diamond_chain(1100)
    R, S = random_relevance(np.random.default_rng(8), g.vertex_count), np.array([0, 5])
    _batched.block(g, R, PRODUCT, S, True, True)
    _batched.block(g, R, PATH_FS[0], S, True, True)
    _batched.block(ring_lattice(40, 4), RelevanceVector.ones(40), PATH_FS[0], S, True, True)
    assert not calls


def _skip_chain(k: int):
    """k diamonds, each an upper branch of one weight-2 edge and a lower
    branch of two weight-1 edges: the upper arc skips a level."""
    records = []
    for i in range(k):
        records += [(f"m{i}", f"m{i + 1}", 2.0),
                    (f"m{i}", f"l{i}", 1.0), (f"l{i}", f"m{i + 1}", 1.0)]
    return build_graph(records)


# graphs with path counts of 16 and more
SCALED = {
    "ring": lambda: ring_lattice(80, 4),
    "ws": lambda: watts_strogatz(GeneratorConfig(n=120, d=6, p=0.3, seed=2)),
    "weighted": lambda: _random_weights(ring_lattice(120, 6), 6, weights=[1.0, 2.0]),
    "skip_chain": lambda: _skip_chain(40),
}


@pytest.mark.parametrize("f", [PRODUCT, MEAN, MAX] + list(PATH_FS), ids=lambda f: f.label)
@pytest.mark.parametrize("name", SCALED)
def test_scaled_counts_keep_every_bit(monkeypatch, name, f):
    # with the threshold lowered to 2^4 every block scales its counts, by
    # powers of two, so every value keeps the bits of the unscaled run
    g = SCALED[name]()
    R = random_relevance(np.random.default_rng(1), g.vertex_count)
    want = _batched.sweep(g, R, f, 1, True, True)
    monkeypatch.setattr(_batched, "SCALE", 4)
    calls = _spy_on_scaled_counts(monkeypatch)
    got = _batched.sweep(g, R, f, 1, True, True)
    assert calls and all(calls)
    for x, y in zip(got, want):
        assert x.tobytes() == y.tobytes()


def _grid(side: int, weight: float):
    records = []
    for i in range(side):
        for j in range(side):
            if i + 1 < side:
                records.append((f"{i}_{j}", f"{i + 1}_{j}", weight))
            if j + 1 < side:
                records.append((f"{i}_{j}", f"{i}_{j + 1}", weight))
    return build_graph(records)


@pytest.mark.parametrize("f", [PRODUCT, PATH_PROD], ids=lambda f: f.label)
def test_unit_and_weight_two_grids_agree(f):
    # counts reach C(78, 39), past 2^53, and both copies count by one rule
    g1, g2 = _grid(40, 1.0), _grid(40, 2.0)
    assert g2.weighted and not g1.weighted
    R = random_relevance(np.random.default_rng(5), g1.vertex_count)
    h1, v1, _ = _batched.sweep(g1, R, f, 1, True, True)
    h2, v2, _ = _batched.sweep(g2, R, f, 1, True, True)
    assert v2.tobytes() == v1.tobytes()
    assert (2.0 * h2).tobytes() == h1.tobytes()


@pytest.mark.parametrize("weight", [1.0, 2.0])
def test_pairwise_harmonic_alone_makes_no_path_counts(monkeypatch, weight):
    # 2^60 paths: past the float64 integer range
    g = _diamond_chain(60, weight)
    R = random_relevance(np.random.default_rng(8), g.vertex_count)
    both = _batched.sweep(g, R, PRODUCT, 1, True, True)[0]
    calls = []
    monkeypatch.setattr(_batched, "_path_counts", lambda dag: calls.append(dag))
    alone = _batched.sweep(g, R, PRODUCT, 1, True, False)[0]
    assert not calls
    assert alone.tobytes() == both.tobytes()


def test_shared_sweep_harmonic_matches_harmonic_alone_when_counts_overflow():
    # 2^1030 paths from the chain's first vertices: those blocks scale
    # their counts, which pairwise harmonic alone never makes
    g = _diamond_chain(1030)
    R = random_relevance(np.random.default_rng(8), g.vertex_count)
    hrep, vrep, _ = _reports(g, R, PRODUCT, PATH_METRICS, 1).values()
    alone = harmonic_centrality(g, R, PRODUCT)
    assert hrep.values.tobytes() == alone.values.tobytes()
    assert np.all(np.isfinite(vrep.values)) and vrep.values.max() > 0


@pytest.mark.parametrize("f", PATH_FS, ids=lambda f: f.label)
def test_block_harmonic_with_scaled_counts_matches_harmonic_alone(monkeypatch, f):
    # 2^600 paths from the chain's first vertices: both sources scale their
    # counts, and R near 1 keeps the path products finite
    g = _diamond_chain(600)
    R = RelevanceVector(np.random.default_rng(9).uniform(0.99, 1.01, g.vertex_count))
    calls, S = _spy_on_scaled_counts(monkeypatch), np.array([0, 5])
    alone = _batched.block(g, R, f, S, True, False)[0]
    assert _batched.block(g, R, f, S, True, True)[0].tobytes() == alone.tobytes()
    assert calls == [True, True] and np.all(np.isfinite(alone))
    # a power-of-two scale is exact: another threshold gives the same bits
    monkeypatch.setattr(_batched, "SCALE", 256)
    assert _batched.block(g, R, f, S, True, False)[0].tobytes() == alone.tobytes()


def test_pairwise_scalar_engine_immune_to_sigma_overflow():
    # a doubling chain: sigma reaches 2^400, and pairwise f reads ratios of counts
    g = _diamond_chain(400, weight=2.0)
    R = RelevanceVector.ones(g.vertex_count)
    vrep = vertex_betweenness(g, R, PRODUCT)
    assert np.all(np.isfinite(vrep.values))
    assert vrep.values.max() > 0
