import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relcentral.errors import (
    DuplicateEdgeError,
    NonPositiveWeightError,
    SelfLoopError,
    UnknownVertexError,
)
from relcentral.graph import build_graph


def test_labels_in_first_appearance_order():
    g = build_graph([("b", "a"), ("c", "a"), ("d", "b")])
    assert g.labels == ("b", "a", "c", "d")


def test_edges_stored_with_small_endpoint_first():
    g = build_graph([("b", "a", 2.0)])
    (u,), (v,) = g.edge_endpoints
    # normalized on index, not label: b came first so b has index 0
    assert (u, v) == (0, 1) and g.labels[u] == "b"
    assert g.edge_weights.tolist() == [2.0]


def test_counts_and_weighted_flag():
    g = build_graph([("a", "b"), ("b", "c")])
    assert (g.vertex_count, g.edge_count) == (3, 2)
    assert not g.weighted
    gw = build_graph([("a", "b", 1.0), ("b", "c", 0.25)])
    assert gw.weighted


def test_duplicate_edge_rejected_in_either_order():
    with pytest.raises(DuplicateEdgeError):
        build_graph([("a", "b"), ("b", "a", 3.0)])


def test_self_loop_rejected():
    with pytest.raises(SelfLoopError):
        build_graph([("a", "a")])


@pytest.mark.parametrize("w", [0.0, -1.0])
def test_non_positive_weight_rejected(w):
    with pytest.raises(NonPositiveWeightError):
        build_graph([("a", "b", w)])


def test_bad_record_shapes():
    with pytest.raises(ValueError):
        build_graph([("a", "b", 1.0, "x")])
    with pytest.raises(ValueError):
        build_graph([("", "b")])


def test_bare_vertex_records_make_isolated_vertices():
    g = build_graph([("a", "b"), ("c",), ("d", None)])
    assert g.labels == ("a", "b", "c", "d")
    assert g.edge_count == 1
    indptr, _, _ = g.neighbor_csr
    assert np.diff(indptr).tolist() == [1, 1, 0, 0]


def test_explicit_vertex_list_merges_with_edge_labels():
    g = build_graph([("a", "b")], vertices=["z", "a"])
    assert set(g.labels) == {"z", "a", "b"}


def test_index_label_roundtrip_and_unknown():
    g = build_graph([("a", "b")])
    assert g.index_of("b") == 1
    assert g.label_of(0) == "a"
    assert g.has_vertex("a") and not g.has_vertex("q")
    with pytest.raises(UnknownVertexError):
        g.index_of("q")
    with pytest.raises(UnknownVertexError):
        g.label_of(5)


def test_neighbor_csr_sorted_by_index_with_edge_ids():
    g = build_graph([("c", "a", 2.0), ("c", "b", 1.5), ("a", "b", 1.0)])
    indptr, nbr, eid = g.neighbor_csr
    c = g.index_of("c")
    lo, hi = indptr[c], indptr[c + 1]
    assert [g.labels[j] for j in nbr[lo:hi]] == ["a", "b"]
    assert g.edge_weights[eid[lo:hi]].tolist() == [2.0, 1.5]
    # every edge appears once from each end, so the slots are symmetric
    ends = np.repeat(np.arange(g.vertex_count), np.diff(indptr))
    assert sorted(zip(ends.tolist(), nbr.tolist())) == sorted(zip(nbr.tolist(), ends.tolist()))


@st.composite
def _graphs(draw):
    """A graph of 0 to 25 vertices, isolated ones among them, its edges
    in random order."""
    n = draw(st.integers(0, 25))
    labels = [f"x{i}" for i in draw(st.permutations(range(n)))]
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    edges = draw(st.lists(pairs, unique_by=lambda p: frozenset(p), max_size=3 * n)) if n > 1 else []
    return build_graph([(labels[a], labels[b]) for a, b in edges], vertices=labels)


@settings(max_examples=150, deadline=None)
@given(_graphs())
def test_neighbor_csr_equals_the_two_key_sort(g):
    u, v = g.edge_endpoints
    src, dst = np.concatenate([u, v]), np.concatenate([v, u])
    order = np.lexsort((dst, src))
    indptr = np.zeros(g.vertex_count + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=g.vertex_count), out=indptr[1:])
    want = (indptr, dst[order], np.tile(np.arange(g.edge_count), 2)[order])
    for got, expected in zip(g.neighbor_csr, want):
        assert got.dtype == expected.dtype
        np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("vertices", [[], ["a"]])
def test_neighbor_csr_of_a_graph_without_edges(vertices):
    indptr, nbr, eid = build_graph([], vertices=vertices).neighbor_csr
    assert indptr.tolist() == [0] * (len(vertices) + 1)
    assert nbr.size == eid.size == 0


def test_edge_endpoints_arrays_align_with_edge_records():
    g = build_graph([("a", "b"), ("c", "b")])
    u, v = g.edge_endpoints
    assert [(g.labels[a], g.labels[b]) for a, b in zip(u, v)] == g.edge_labels()
    assert (u < v).all()


def test_edge_records_and_labels():
    g = build_graph([("a", "b", 2.0), ("c",)])
    assert g.edge_records() == [("a", "b", 2.0)]
    assert g.edge_labels() == [("a", "b")]


# --- validation order: pinned so the array form keeps it ---


@pytest.mark.parametrize(
    "records, error, message",
    [
        # the first faulty record decides, whatever its fault
        ([("a", "b"), ("c", "c"), ("a", "b"), ("x", "y", -1.0)],
         SelfLoopError, "record 1: self-loop at 'c'"),
        ([("a", "b"), ("b", "a"), ("c", "c")],
         DuplicateEdgeError, "record 1: duplicate edge 'b'-'a'"),
        ([("a", "b"), ("c", "d", 0.0), ("a", "b")],
         NonPositiveWeightError, "record 1: weight 0.0 for 'c'-'d'"),
        ([("a", "b"), ("a", "b"), ("", "x")],
         DuplicateEdgeError, "record 1: duplicate edge 'a'-'b'"),
        ([("a", "b"), ("", "x"), ("c", "c")],
         ValueError, "record 1: vertex label must be a non-empty string, got ''"),
        ([("a", "a"), ("b", "c", "abc")], SelfLoopError, "record 0: self-loop at 'a'"),
        ([("a", "b", -1.0), ("a", "b", 1.0, 2.0)],
         NonPositiveWeightError, "record 0: weight -1.0 for 'a'-'b'"),
        ([("a", "b"), ("a", "b", 1.0, 2.0), ("c", "c")],
         ValueError, "record 1: expected 1-3 fields, got ('a', 'b', 1.0, 2.0)"),
        ([("a", "b"), ("q",), ("c", "d"), ("",), ("d", "c")],
         ValueError, "record 3: vertex label must be a non-empty string, got ''"),
        ([("a", "b"), ("q",), ("c", "d"), ("r", None), ("d", "c"), ("e", "e")],
         DuplicateEdgeError, "record 4: duplicate edge 'd'-'c'"),
        ([("a", "b", float("nan")), ("c", "c")],
         NonPositiveWeightError, "record 0: weight nan for 'a'-'b'"),
        ([("a", "b"), ("b", "c", float("inf"))],
         NonPositiveWeightError, "record 1: weight inf for 'b'-'c'"),
        # within one record: label, then self-loop, then weight, then duplicate
        ([("", "", -1.0)], ValueError, "record 0: vertex label must be a non-empty string"),
        ([(1, 1)], ValueError, "record 0: vertex label must be a non-empty string, got 1"),
        ([("a", "a", -1.0)], SelfLoopError, "record 0: self-loop at 'a'"),
        ([("a", "b"), ("b", "a", -1.0)],
         NonPositiveWeightError, "record 1: weight -1.0 for 'b'-'a'"),
        ([("a", "b", 2.0), ("b", "a", 3.0)],
         DuplicateEdgeError, "record 1: duplicate edge 'b'-'a'"),
        # a record that is not a sequence is placed like any other fault
        ([("a", "a"), 5], SelfLoopError, "record 0: self-loop at 'a'"),
    ],
)
def test_first_faulty_record_decides_error_and_position(records, error, message):
    with pytest.raises(error) as info:
        build_graph(records)
    assert str(info.value).startswith(message)
    assert type(info.value) is error


def test_unparsable_weight_raises_value_error_unless_an_earlier_record_fails():
    with pytest.raises(ValueError):
        build_graph([("a", "b"), ("c", "d", "abc"), ("b", "a")])
    with pytest.raises(DuplicateEdgeError, match="record 1"):
        build_graph([("a", "b"), ("b", "a"), ("c", "d", "abc")])


def test_vertex_list_preseeds_labels_and_is_checked_first():
    g = build_graph([("a", "b"), ("c", "a")], vertices=["z", "a", "z"])
    assert g.labels == ("z", "a", "b", "c")
    assert g.edge_records() == [("a", "b", 1.0), ("a", "c", 1.0)]
    with pytest.raises(ValueError, match="^vertex list: vertex label"):
        build_graph([("a", "a")], vertices=["x", ""])


def test_bare_records_weight_forms_and_field_counts():
    g = build_graph([("a",), ("b", None), ("c", None, 5.0), ("d", "a", None), ("e", "b", "2.5")])
    assert g.labels == ("a", "b", "c", "d", "e")
    assert g.edge_records() == [("a", "d", 1.0), ("b", "e", 2.5)]
    assert g.weighted
    assert not build_graph([("a", "b", None), ("b", "c", 1)]).weighted
    with pytest.raises(ValueError, match="record 0: expected 1-3 fields"):
        build_graph([("a", "b", 1.0, 2.0)])
    with pytest.raises(ValueError):
        build_graph([("a", "b", "abc")])
    with pytest.raises(ValueError, match="^record 1: vertex label"):
        build_graph([("a",), ("",)])


def test_bare_and_edge_records_intern_in_first_appearance_order():
    records = [("x",), ("c", "a"), ("y", None), ("a", "b", 2.0), ("z",), ("a",),
               ("b", None, 7.0), ("d", "c")]
    g = build_graph(records)
    assert g.labels == ("x", "c", "a", "y", "b", "z", "d")
    assert g.edge_records() == [("c", "a", 1.0), ("a", "b", 2.0), ("c", "d", 1.0)]
    assert [g.index_of(lab) for lab in g.labels] == list(range(7))
    g = build_graph(records, vertices=["b", "q", "x"])
    assert g.labels == ("b", "q", "x", "c", "a", "y", "z", "d")
    u, v = g.edge_endpoints
    assert (u.tolist(), v.tolist()) == ([3, 0, 3], [4, 4, 7])
    # a bare record names its vertex before the edge that repeats it
    assert build_graph([("b",), ("a", "b")]).labels == ("b", "a")
    assert build_graph([], vertices=["p"]).labels == ("p",)
    assert build_graph([]).vertex_count == 0


def test_records_may_be_lists_or_come_from_a_generator():
    g = build_graph(iter([["a", "b"], ["b", "c", "2.5"], ["d"], ("e", None)]))
    assert g.labels == ("a", "b", "c", "d", "e")
    assert g.edge_records() == [("a", "b", 1.0), ("b", "c", 2.5)]


@pytest.mark.parametrize(
    "records, error, message",
    [
        ([("a", "b"), (None,), ("a", "a")], ValueError,
         "record 1: vertex label must be a non-empty string, got None"),
        ([("a", "b"), (None, "c"), ("a", "a")], ValueError,
         "record 1: vertex label must be a non-empty string, got None"),
        ([("a", "b"), ("c", ""), ("b", "a")], ValueError,
         "record 1: vertex label must be a non-empty string, got ''"),
        ([("a", "b"), ("b", "a"), ("c", 5)], DuplicateEdgeError,
         "record 1: duplicate edge 'b'-'a'"),
        ([("a", "b"), ("c", 5), ("b", "a")], ValueError,
         "record 1: vertex label must be a non-empty string, got 5"),
        ([("a", "b"), (), ("c", "c")], ValueError, "record 1: expected 1-3 fields, got ()"),
        ([("a", "b", 1.0), ("b", None, "zz"), ("c", "a", "q")], ValueError,
         "could not convert string to float: 'q'"),
        ([("q",), ("a", "b", -2.0), ("c", "d", "zz")], NonPositiveWeightError,
         "record 1: weight -2.0 for 'a'-'b'"),
    ],
)
def test_mixed_records_first_fault_decides(records, error, message):
    with pytest.raises(error) as info:
        build_graph(records)
    assert type(info.value) is error
    assert str(info.value).startswith(message)


def test_bare_record_with_unparsable_third_field_is_still_bare():
    g = build_graph([("a", "b"), ("c", None, "zz")])
    assert g.labels == ("a", "b", "c") and g.edge_count == 1
