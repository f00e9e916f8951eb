"""The column pass of build_graph against its per-record rules."""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from relcentral.errors import DuplicateEdgeError, NonPositiveWeightError, SelfLoopError
from relcentral.graph import build_graph, build_graph_chunks


def _check_label(label, where):
    if not isinstance(label, str) or not label:
        raise ValueError(f"{where}: vertex label must be a non-empty string, got {label!r}")


def per_record(records, vertices=()):
    """The reference: build_graph's outcome by its rules applied one record
    at a time, the labels and edges of the graph, or the type and message
    of the first fault. Within a record: its shape, its labels, its
    weight, then self-loop, weight value and duplicate."""
    index, edges, pairs = {}, [], set()
    try:
        for lab in vertices:
            _check_label(lab, "vertex list")
            index.setdefault(lab, len(index))
        for pos, rec in enumerate(records):
            rec = tuple(rec)
            if len(rec) >= 2 and rec[1] is None:
                rec = rec[:1]  # a bare vertex
            if len(rec) == 1:
                _check_label(rec[0], f"record {pos}")
                index.setdefault(rec[0], len(index))
                continue
            if len(rec) not in (2, 3):
                raise ValueError(f"record {pos}: expected 1-3 fields, got {rec!r}")
            a, b, w = rec if len(rec) == 3 else (*rec, None)
            _check_label(a, f"record {pos}")
            _check_label(b, f"record {pos}")
            w = 1.0 if w is None else float(w)
            index.setdefault(a, len(index))
            index.setdefault(b, len(index))
            if a == b:
                raise SelfLoopError(f"record {pos}: self-loop at {a!r}")
            if not (math.isfinite(w) and w > 0.0):
                raise NonPositiveWeightError(f"record {pos}: weight {w!r} for {a!r}-{b!r}")
            if frozenset((a, b)) in pairs:
                raise DuplicateEdgeError(f"record {pos}: duplicate edge {a!r}-{b!r}")
            pairs.add(frozenset((a, b)))
            edges.append((a, b, w) if index[a] < index[b] else (b, a, w))
    except Exception as exc:  # every error must match, whatever its type
        return type(exc), str(exc)
    return tuple(index), edges


_label = st.sampled_from("abcdefgh") | st.text(min_size=1, max_size=3)
_record = st.one_of(
    st.tuples(_label, _label),
    st.tuples(_label, _label, st.floats(0.5, 4.0) | st.none() | st.just("2.5")),
    st.tuples(_label),
    st.tuples(_label, st.none()),
    st.tuples(_label, st.none(), st.floats()),
    st.lists(_label, min_size=2, max_size=2),
)
# labels and weights that break a rule: empty, None, not a str, unhashable;
# weights float() rejects (ValueError, TypeError, OverflowError) or that are
# not positive and finite
_bad_label = st.sampled_from(["", None, 7, b"a", 2.5]) | st.lists(_label, max_size=1)
_bad_weight = st.sampled_from(["x", 10**400, float("nan"), float("inf")]) | \
    st.floats(max_value=0.0) | st.lists(st.floats(0.5, 4.0), max_size=1)
_bad_record = st.one_of(
    st.tuples(_label, _label, _bad_weight),
    st.tuples(_label, _label, _bad_weight),
    st.tuples(_label, _bad_label),
    st.tuples(_bad_label, _bad_label | _label),
    st.tuples(_bad_label, _bad_label | _label, _bad_weight),
    st.tuples(_bad_label),
    st.tuples(_bad_label, st.none(), _bad_weight),
    st.just(()),
    st.tuples(_label, _label | st.none(), _bad_weight, _bad_weight),
    st.lists(_label | _bad_label, max_size=4),
    st.integers(0, 9) | st.none(),  # not a sequence
    st.text(max_size=4),  # a sequence of its characters
)


@st.composite
def _records(draw):
    """Records of valid shapes and labels, and up to two that break a rule."""
    records = draw(st.lists(_record, max_size=30))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        records.insert(draw(st.integers(0, len(records))), draw(_bad_record))
    return records


@settings(max_examples=300, deadline=None)
@given(_records(), st.lists(_label, max_size=3) | st.lists(_label | _bad_label, max_size=3))
# within a record the source label is checked first, then the target, then the weight
@example([("a", "b"), ("", 7, "x"), ("c",)], [])
@example([("a", "b"), ("c", "d", "x"), ("a", "b", 1.0, 2.0)], ["q"])
def test_column_pass_matches_the_per_record_rules(records, vertices):
    assert _outcome(build_graph, records, vertices) == per_record(records, vertices)


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
