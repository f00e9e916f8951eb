import numpy as np
import pytest

from relcentral.errors import InvalidDegreeError
from relcentral.generators import (
    GeneratorConfig,
    assign_relevance,
    ring_lattice,
    watts_strogatz,
)


def degree_sequence(g) -> list[int]:
    return np.diff(g.neighbor_csr[0]).tolist()


def neighbor_labels(g, label: str) -> set[str]:
    indptr, nbr, _ = g.neighbor_csr
    i = g.index_of(label)
    return {g.labels[j] for j in nbr[indptr[i]:indptr[i + 1]].tolist()}


def edge_pairs(g) -> list[tuple[int, int]]:
    return list(zip(*(x.tolist() for x in g.edge_endpoints)))


def test_ring_lattice_shape():
    g = ring_lattice(10, 4)
    assert g.vertex_count == 10
    assert g.edge_count == 20
    assert degree_sequence(g) == [4] * 10
    assert neighbor_labels(g, "v0") == {"v1", "v2", "v8", "v9"}
    assert not g.weighted


def test_ring_lattice_d2_is_plain_cycle():
    g = ring_lattice(5, 2)
    assert g.edge_count == 5
    assert neighbor_labels(g, "v3") == {"v2", "v4"}
    assert not g.weighted


@pytest.mark.parametrize("n,d", [(10, 3), (10, 0), (10, -2), (10, 10), (4, 6)])
def test_invalid_degree_rejected(n, d):
    with pytest.raises(InvalidDegreeError):
        ring_lattice(n, d)


def test_config_validates_probabilities():
    with pytest.raises(ValueError):
        GeneratorConfig(n=10, d=4, p=1.5)
    with pytest.raises(InvalidDegreeError):
        GeneratorConfig(n=10, d=5)


def test_config_has_no_relevance_fraction():
    # assign_relevance takes r; a graph does not depend on it
    with pytest.raises(TypeError):
        GeneratorConfig(n=10, d=4, r=0.5)


def test_ws_p_zero_keeps_the_lattice():
    g0 = watts_strogatz(GeneratorConfig(n=20, d=4, p=0.0, seed=3))
    assert g0.edge_records() == ring_lattice(20, 4).edge_records()


def test_ws_preserves_edge_count_and_simplicity():
    for seed in range(5):
        g = watts_strogatz(GeneratorConfig(n=30, d=6, p=1.0, seed=seed))
        assert g.edge_count == 90
        pairs = set(edge_pairs(g))
        assert len(pairs) == 90
        assert all(u != v for u, v in pairs)


def test_ws_deterministic_per_seed():
    a = watts_strogatz(GeneratorConfig(n=40, d=4, p=0.3, seed=7))
    b = watts_strogatz(GeneratorConfig(n=40, d=4, p=0.3, seed=7))
    c = watts_strogatz(GeneratorConfig(n=40, d=4, p=0.3, seed=8))
    assert a.edge_records() == b.edge_records()
    assert a.edge_records() != c.edge_records()


def test_ws_actually_rewires_at_high_p():
    g = watts_strogatz(GeneratorConfig(n=60, d=4, p=1.0, seed=0))
    assert g.edge_records() != ring_lattice(60, 4).edge_records()
    # rewiring shortens the graph: some vertex pair further than d/2 apart
    spread = {abs(u - v) % 60 for u, v in edge_pairs(g)}
    assert max(min(s, 60 - s) for s in spread) > 2


def test_ws_complete_graph_cannot_rewire():
    # on K5 every candidate endpoint collides, so all retries exhaust
    with pytest.warns(UserWarning):
        g = watts_strogatz(GeneratorConfig(n=5, d=4, p=1.0, seed=1))
    assert sorted(edge_pairs(g)) == sorted(edge_pairs(ring_lattice(5, 4)))


def test_assign_relevance_r_zero_is_all_ones():
    R = assign_relevance(50, 10, 0.0, seed=1)
    assert R.is_uniform() and R[0] == 1.0


def test_assign_relevance_fraction_and_range():
    n, d, r = 200, 8, 0.3
    R = assign_relevance(n, d, r, seed=5)
    boosted = [x for x in R.values if x != 1.0]
    assert len(boosted) == int(r * n)
    assert all(1.0 < x < 1.0 + d for x in boosted)


@pytest.mark.parametrize("r, n, k", [(0.29, 100, 29), (0.57, 100, 57), (0.1, 1000, 100),
                                     (0.7, 10, 7)])
def test_assign_relevance_boosts_the_floor_of_r_times_n(r, n, k):
    # r * n in float64 is 28.999999999999996 for r=0.29, n=100
    R = assign_relevance(n, 8, r, seed=3)
    assert np.count_nonzero(R.values != 1.0) == k


def test_assign_relevance_r_one_boosts_everyone():
    R = assign_relevance(64, 5, 1.0, seed=2)
    assert all(1.0 < x < 6.0 for x in R.values)


def test_assign_relevance_deterministic():
    a = assign_relevance(100, 10, 0.5, seed=9)
    b = assign_relevance(100, 10, 0.5, seed=9)
    c = assign_relevance(100, 10, 0.5, seed=10)
    np.testing.assert_array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


@pytest.mark.parametrize("r", [-0.1, 1.5, float("nan")])
def test_assign_relevance_refuses_a_fraction_outside_0_1(r):
    with pytest.raises(ValueError, match=r"relevance fraction r=.* outside \[0, 1\]"):
        assign_relevance(10, 5, r, seed=0)
