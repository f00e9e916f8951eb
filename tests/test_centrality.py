import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ALL_FS,
    PAIRWISE_FS,
    random_graph,
    random_matrix_f,
    random_relevance,
    square_graph,
    weighted_ring,
)
from relcentral import _batched, _weighted
from relcentral._sweep import BLOCK
from relcentral.centrality import (
    Metric,
    _make_report,
    _path_reports,
    betweenness_reports,
    degree_centrality,
    edge_betweenness,
    harmonic_centrality,
    rank,
    vertex_betweenness,
)
from relcentral.errors import (
    LengthMismatchError,
    PathVariantNotApplicableError,
    SigmaOverflowError,
)
from relcentral.graph import build_graph
from relcentral.oracle import brute_betweenness, brute_degree, brute_harmonic
from relcentral.relevance import (
    MEAN,
    PATH_PROD,
    PATH_SUM,
    PRODUCT,
    SOURCE_ONLY,
    RelevanceVector,
    matrix_function,
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
    assert rank(rep) == list(rep.ranking)
    assert rep.value_of("C") == 2.0


@pytest.mark.parametrize("seed", range(3))
def test_ranking_matches_descending_value_then_index_key(seed):
    rng = np.random.default_rng(seed)
    values = rng.integers(-2, 3, size=300).astype(np.float64)
    values[rng.random(300) < 0.3] = 0.0
    values[rng.random(300) < 0.3] = -0.0
    ids = tuple(f"v{i}" for i in range(300))
    rep = _make_report(Metric.DEGREE, "vertex", ids, values, PRODUCT, "x", False)
    order = sorted(range(300), key=lambda i: (-values[i], i))
    assert rep.ranking == tuple(ids[i] for i in order)


def test_report_defaults_to_uniform_source():
    rep = degree_centrality(square_graph())
    assert rep.relevance_source == "uniform"
    rep2 = degree_centrality(square_graph(), relevance_source="override")
    assert rep2.relevance_source == "override"


def test_report_values_read_only():
    rep = degree_centrality(square_graph())
    with pytest.raises(ValueError):
        rep.values[0] = 99.0


def test_edge_report_ids_are_label_pairs():
    g = weighted_ring()
    erep = edge_betweenness(g)
    assert erep.kind == "edge"
    assert erep.ids[0] == ("A", "B")
    assert erep.weighted


def test_relevance_length_mismatch():
    with pytest.raises(LengthMismatchError):
        degree_centrality(square_graph(), RelevanceVector.ones(3))


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


@pytest.mark.parametrize("seed", range(6))
def test_fast_engines_match_oracle(seed):
    rng = np.random.default_rng(1000 + seed)
    n = int(rng.integers(4, 10))
    g = random_graph(rng, n, weighted=bool(seed % 2))
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
        one = _path_reports(g, R, f, 1, None)
        four = _path_reports(g, R, f, 4, None)
        for a, b in zip(one, four):
            assert a.values.tobytes() == b.values.tobytes()


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("f", [PRODUCT, PATH_PROD], ids=["pairwise", "path"])
def test_shared_sweep_harmonic_matches_harmonic_alone(weighted, f):
    rng = np.random.default_rng(23)
    g = random_graph(rng, 40, weighted)
    R = random_relevance(rng, 40)
    hrep, vrep, erep = _path_reports(g, R, f, 1, None)
    alone = harmonic_centrality(g, R, f)
    assert hrep.values.tobytes() == alone.values.tobytes()
    v, e = betweenness_reports(g, R, f)
    assert vrep.values.tobytes() == v.values.tobytes()
    assert erep.values.tobytes() == e.values.tobytes()


def _reweighted(g, weight: float):
    return build_graph([(a, b, weight) for a, b, _ in g.edge_records()])


def _assert_uniform_weight_matches_unweighted(g1, R):
    g2 = _reweighted(g1, 2.0)
    assert g2.weighted and not g1.weighted
    for f in ALL_FS:
        h1, v1, e1 = _path_reports(g1, R, f, 1, None)
        h2, v2, e2 = _path_reports(g2, R, f, 1, None)
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


def test_uniform_weight_two_diamond_chain_uses_exact_counts(monkeypatch):
    # sigma reaches 2^60, past the float64 integer range
    counts = _weighted._StackedDag._counts
    calls = []

    def spy(dag):
        sigma, exact = counts(dag)
        calls.append(exact is not None)
        return sigma, exact

    monkeypatch.setattr(_weighted._StackedDag, "_counts", spy)
    g = _diamond_chain(60)
    _assert_uniform_weight_matches_unweighted(
        g, random_relevance(np.random.default_rng(7), g.vertex_count)
    )
    assert any(calls)


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
    A = g.adjacency_matrix
    R = RelevanceVector(rng.uniform(0.5, 4.0, size=n))
    r, deg = R.values, A.sum(axis=1)
    F = rng.uniform(0.1, 3.0, size=(n, n))
    np.fill_diagonal(F, 0.0)
    expected = {
        PRODUCT: r * (A @ r),
        SOURCE_ONLY: r * deg,
        MEAN: (r * deg + A @ r) / 2.0,
        "matrix": (A * F).sum(axis=1),
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


def test_scalar_path_sum_overflow_detected():
    # sigma doubles per diamond; 2^1100 * float relevance cannot stay finite
    g = _diamond_chain(1100, weight=2.0)
    assert g.weighted
    R = RelevanceVector.ones(g.vertex_count)
    with pytest.raises(SigmaOverflowError):
        vertex_betweenness(g, R, PATH_SUM)


def test_batched_sigma_overflow_detected():
    # layered complete bipartite stack: sigma multiplies by 20 per layer
    width, depth = 20, 240
    records = []
    for lay in range(depth - 1):
        for a in range(width):
            for b in range(width):
                records.append((f"x{lay}_{a}", f"x{lay + 1}_{b}"))
    g = build_graph(records)
    R = RelevanceVector.ones(g.vertex_count)
    with pytest.raises(SigmaOverflowError):
        _batched._forward(g, R, PRODUCT, np.array([0]))


def test_pairwise_scalar_engine_immune_to_sigma_overflow():
    # same doubling chain, but pairwise fractions are ratios of big ints
    g = _diamond_chain(400, weight=2.0)
    R = RelevanceVector.ones(g.vertex_count)
    vrep = vertex_betweenness(g, R, PRODUCT)
    assert np.all(np.isfinite(vrep.values))
    assert vrep.values.max() > 0
