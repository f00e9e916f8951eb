"""The column pass of build_graph against its per-record rules."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from relcentral.graph import (
    _Interner,
    _intern_records,
    _record_columns,
    build_graph,
    build_graph_chunks,
)


_label = st.sampled_from("abcdefgh") | st.text(min_size=1, max_size=3)
_record = st.one_of(
    st.tuples(_label, _label),
    st.tuples(_label, _label, st.floats(0.5, 4.0) | st.none() | st.just("2.5")),
    st.tuples(_label),
    st.tuples(_label, st.none()),
    st.tuples(_label, st.none(), st.floats()),
    st.lists(_label, min_size=2, max_size=2),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_record, max_size=30), st.lists(_label, max_size=3))
def test_column_pass_matches_the_per_record_rules(records, vertices):
    seeded = dict.fromkeys(vertices)
    seeded = dict(zip(seeded, range(len(seeded))))
    interner = _Interner(seeded)
    # valid labels and shapes never need the per-record pass
    assert interner.add(*_record_columns(records))
    (labels, *fast, edge), lookup = interner.columns()
    (index, ia, ib, w, pos), fault = _intern_records(records, seeded, None)
    assert fault is None
    assert list(lookup["index"].items()) == list(index.items())
    assert labels == tuple(index)
    for got, want in zip(fast + [np.flatnonzero(edge)], (ia, ib, w, pos)):
        np.testing.assert_array_equal(got, want)


def _outcome(build, *args):
    try:
        g = build(*args)
    except Exception as exc:  # every error must match, whatever its type
        return type(exc), str(exc)
    return g.labels, g.edge_records()


_cell_label = _label | st.sampled_from(["", None])
_weight = st.none() | st.floats(-1.0, 4.0) | st.sampled_from(["2.5", "x", float("nan")])


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(_cell_label, _label | st.none(), _weight), max_size=30),
       st.booleans())
def test_columns_build_the_graph_of_their_records(rows, weighted):
    source, target, weight = (list(c) for c in zip(*rows)) if rows else ([], [], [])
    weight = weight if weighted else None
    records = [(s,) if t is None else (s, t) if w is None else (s, t, w)
               for s, t, w in zip(source, target, weight or [None] * len(rows))]
    assert _outcome(build_graph_chunks, [(source, target, weight)]) == _outcome(build_graph, records)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(_cell_label, _label | st.none(), _weight), max_size=30),
       st.lists(st.tuples(st.integers(0, 30), st.booleans()), max_size=4), st.booleans())
def test_chunks_build_the_graph_of_all_their_records(rows, cuts, weighted_last):
    # labels are numbered across chunks, and a record that breaks a rule
    # in a later chunk is placed after the records of the earlier ones
    bounds = sorted({0, len(rows)} | {c for c, _ in cuts if c < len(rows)})
    weighted = {c: x for c, x in cuts} | {bounds[-2] if len(bounds) > 1 else 0: weighted_last}
    chunks, records = [], []
    for a, b in zip(bounds, bounds[1:]):
        source, target, weight = (list(c) for c in zip(*rows[a:b]))
        if not weighted.get(a, False):
            weight = None
        chunks.append((source, target, weight))
        records += [(s,) if t is None else (s, t) if w is None else (s, t, w)
                    for s, t, w in zip(source, target, weight or [None] * (b - a))]
    assert _outcome(build_graph_chunks, chunks) == _outcome(build_graph, records)
