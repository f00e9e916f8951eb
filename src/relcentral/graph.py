"""Immutable undirected simple graphs with positive edge weights.

Vertices carry external string labels and dense internal indices
(0..V-1, assigned in first-appearance order). Edge weights are
distances: lower weight means the endpoints are closer.

A graph is stored as flat arrays: edge k joins ``u[k] < v[k]`` with
weight ``w[k]``, edges in construction order, and the labels tuple is
the only per-vertex Python structure kept from the start. The
label->index dict and the CSR neighbor lists that the engine walks are
built on first use. When every label came as an integer value (the edge
reader's canonical decimal labels), the graph also keeps those values
and the table that numbered them, so that :meth:`Graph.indices_of` finds
the indices of integer values without the dict, and
:attr:`Graph.label_order` sorts the labels by one lexsort. No other
module reads how labels are numbered.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cached_property
from itertools import compress, islice, repeat
from operator import is_not, itemgetter
from typing import Iterable

import numpy as np

from .errors import (
    DuplicateEdgeError,
    NonPositiveWeightError,
    SelfLoopError,
    UnknownVertexError,
)

__all__ = ["Graph", "build_graph", "build_graph_chunks"]

# 10**k for k up to 18: a label value below 10**18 has at most 18 digits
_POW10 = 10 ** np.arange(19, dtype=np.int64)


class Graph:
    """Validated undirected simple graph. Immutable after construction;
    safe to share across worker threads. Made by :func:`build_graph`.

    ``values`` and ``table``, when given, are every label's integer value
    (``labels[i]`` is its decimal text) and a table from value to index
    (-1: no vertex), both read-only; ``integer_labels`` says whether they
    were given. A view built on first use (a ``cached_property``) may be
    built twice by threads that race for it, which is harmless: both
    builds are equal.
    """

    def __init__(self, labels: tuple[str, ...], u: np.ndarray, v: np.ndarray, w: np.ndarray,
                 index: dict[str, int] | None = None, values: np.ndarray | None = None,
                 table: np.ndarray | None = None):
        self.labels = labels
        if index is not None:  # the builder's dict, so _index is not built again
            self._index = index
        for a in (u, v, w, values, table):
            if a is not None:
                a.setflags(write=False)
        self._u, self._v, self._w = u, v, w
        self._values, self._table = values, table
        self.weighted: bool = bool(np.any(w != 1.0))

    @cached_property
    def _index(self) -> dict[str, int]:
        """label -> index, built when a label is first looked up."""
        return dict(zip(self.labels, range(len(self.labels))))

    # --- basic queries ---

    @property
    def vertex_count(self) -> int:
        return len(self.labels)

    @property
    def edge_count(self) -> int:
        return len(self._u)

    def index_of(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownVertexError(f"unknown vertex {label!r}") from None

    def label_of(self, index: int) -> str:
        if not 0 <= index < len(self.labels):
            raise UnknownVertexError(f"vertex index {index} out of range")
        return self.labels[index]

    def has_vertex(self, label: str) -> bool:
        return label in self._index

    @property
    def integer_labels(self) -> bool:
        """Whether every label came as an integer value, its decimal text:
        :meth:`indices_of` then finds integer values through a table."""
        return self._values is not None

    def indices_of(self, column: list[str] | np.ndarray) -> np.ndarray:
        """The index of the vertex of each label of a ``str`` list, or of
        each value of an integer array (a label's decimal text); -1 where
        there is none."""
        if isinstance(column, np.ndarray) and self._table is not None:
            idx = np.full(len(column), -1, np.intp)
            inside = (column >= 0) & (column < len(self._table))
            idx[inside] = self._table[column[inside]]
            return idx
        if isinstance(column, np.ndarray):
            column = _decimal(column)
        return np.fromiter(map(self._index.get, column, repeat(-1)), np.intp, len(column))

    @cached_property
    def label_order(self) -> np.ndarray:
        """The vertex indices in ascending label order, read-only. For
        integer labels (values below 10**18) it is one lexsort by the value
        left-aligned to 18 digits, then by its digit count ("1" < "10" < "9")."""
        if self._values is None:
            order = np.array(sorted(range(self.vertex_count), key=self.labels.__getitem__),
                             dtype=np.intp)
        else:
            digits = 1 + np.searchsorted(_POW10[1:18], self._values, side="right")
            order = np.lexsort((digits, self._values * _POW10[18 - digits]))
        order.setflags(write=False)
        return order

    def edge_labels(self) -> list[tuple[str, str]]:
        """Edges as (label, label) pairs, in construction order."""
        lab = self.labels.__getitem__
        return list(zip(map(lab, self._u.tolist()), map(lab, self._v.tolist())))

    @cached_property
    def edge_ids(self) -> tuple[tuple[str, str], ...]:
        """``edge_labels()`` as one tuple, built once: the ids of the
        graph's edge reports."""
        return tuple(self.edge_labels())

    def edge_records(self) -> list[tuple[str, str, float]]:
        """Edges as (label, label, weight) triples, in construction order."""
        return [(a, b, w) for (a, b), w in zip(self.edge_labels(), self._w.tolist())]

    # --- arrays ---

    @property
    def edge_endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only arrays (u[], v[]) of internal endpoint indices, edge order."""
        return self._u, self._v

    @property
    def edge_weights(self) -> np.ndarray:
        """Read-only edge weights, edge order."""
        return self._w

    @cached_property
    def neighbor_csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Neighbor lists as CSR arrays (indptr, neighbor, edge id): the
        slots of vertex x are ``indptr[x]:indptr[x + 1]``, ascending by
        neighbor. Built with numpy alone; the BFS engine walks it."""
        n, m = self.vertex_count, self.edge_count
        src = np.concatenate([self._u, self._v])
        dst = np.concatenate([self._v, self._u])
        order = np.argsort(src * n + dst)  # one key: the (src, dst) pairs are unique
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        out = (indptr, dst[order], np.tile(np.arange(m), 2)[order])
        for a in out:
            a.setflags(write=False)
        return out

    def __repr__(self) -> str:  # pragma: no cover
        kind = "weighted" if self.weighted else "unweighted"
        return f"Graph({self.vertex_count} vertices, {self.edge_count} edges, {kind})"


def build_graph(
    edge_records: Iterable[tuple],
    vertices: Iterable[str] = (),
) -> Graph:
    """Build a validated graph from (label, label[, weight]) records.

    Labels are mapped to dense indices in first-appearance order; the
    optional ``vertices`` list pre-seeds labels (and is how isolated
    vertices are declared). A record of the form ``(label,)`` or
    ``(label, None)`` also declares a bare vertex. Missing weights
    default to 1.

    The first faulty record decides the error; within a record the
    label is checked first, then self-loop, weight and duplicate.
    """
    index: dict[str, int] = {}
    for lab in vertices:
        _check_label(lab, None)
        index.setdefault(lab, len(index))
    interner = _Interner(index)
    interner.add(*_record_columns(edge_records))
    return interner.graph()


def build_graph_chunks(chunks: Iterable[tuple[list, list, list | None]]) -> Graph:
    """Build a validated graph from records that arrive as chunks of
    columns ``(source, target, weight)``: record k of a chunk is
    ``(source[k],)``, a bare vertex, when ``target[k]`` is None, else
    ``(source[k], target[k], weight[k])``, and a weight is 1 when
    ``weight`` or ``weight[k]`` is None.

    A source and target column may instead be integer arrays, each value
    standing for its decimal string (the edge reader's canonical integer
    labels), which are numbered with no string per cell (see
    ``_Interner``).

    Labels are numbered as each chunk arrives and only its endpoint ids,
    weights and a mask of its edge records are kept, so no label column
    outlives its chunk. Every chunk is drawn before any array check
    runs, so an error raised while drawing one (the edge reader's row
    checks) comes before any graph error. The graph, and the error of a
    faulty record, are those of :func:`build_graph` on all the records.
    This is the form the edge CSV reader yields.
    """
    interner = _Interner({})
    for source, target, weight in chunks:
        interner.add(source, target, weight)
    return interner.graph()


def _checked_graph(cols, fault, lookup: dict) -> Graph:
    """The graph of interned columns (labels, ia, ib, w and a mask of the
    records that are edges) after the array checks (self-loop, weight,
    duplicate), whose first faulty record decides the error: it names
    the record, and carries its position as ``record`` and the message
    without it as ``detail``. ``fault``, from a later record, is raised
    when they pass. ``lookup`` holds the graph's keyword arguments for
    finding a label's index."""
    labels, ia, ib, w, edge = cols
    n = len(labels)
    u, v = np.minimum(ia, ib, dtype=np.int64), np.maximum(ia, ib, dtype=np.int64)
    loop = ia == ib
    bad_weight = ~(np.isfinite(w) & (w > 0.0))
    ordered = u * n + v
    ordered.sort()
    repeated = np.zeros(len(u), dtype=bool)  # every occurrence of a pair after its first
    if (ordered[1:] == ordered[:-1]).any():
        repeated[:] = True
        repeated[np.unique(u * n + v, return_index=True)[1]] = False
    del ordered
    faulty = loop | bad_weight | repeated
    if faulty.any():
        k = int(np.argmax(faulty))
        pos, a, b = int(np.flatnonzero(edge)[k]), labels[ia[k]], labels[ib[k]]
        if loop[k]:
            kind, detail = SelfLoopError, f"self-loop at {a!r}"
        elif bad_weight[k]:
            kind, detail = NonPositiveWeightError, f"weight {float(w[k])!r} for {a!r}-{b!r}"
        else:
            kind, detail = DuplicateEdgeError, f"duplicate edge {a!r}-{b!r}"
        error = kind(f"record {pos}: {detail}")
        error.record, error.detail = pos, detail
        raise error
    if fault is not None:
        raise fault
    return Graph(labels, u, v, w, **lookup)


# endpoint ids while records are interned: a graph of 2^31 labels would
# not fit in memory, and half the bytes of int64 lower the build's peak
_ID = np.int32

# entries of the integer label table per label cell taken: the table is
# indexed by value, so this bounds its bytes by those of the input...
_TABLE_PER_CELL = 4
# ...or by 4 MiB of int32, whichever is more, so that a file sorted by
# source, whose first rows name its largest labels, stays on the table
_TABLE_FLOOR = 1 << 20


class _Interner:
    """The labels and edges of records taken a chunk at a time.

    Labels are numbered by first appearance across chunks; each chunk
    leaves only its endpoint ids, its weights (None when all are 1) and
    a mask of its records that are edges. The array checks run once, in
    :meth:`graph`. A chunk of string labels goes through one column pass
    (:func:`_intern`); when a record in it breaks a label or weight rule,
    a check finds the first such record, only the records before it are
    numbered, its error is kept as ``fault``, and no chunk after it is
    taken.

    Label columns that are integer arrays (the edge reader's canonical
    decimal labels) are numbered through a table indexed by value, with
    no string per cell, while every label so far came that way and the
    table stays within ``_TABLE_PER_CELL`` entries per label cell taken
    or ``_TABLE_FLOOR`` entries, whichever is more; only each new label's
    value is kept. From the first chunk that breaks either rule, the
    values numbered so far enter the label dict as their decimal strings,
    in their order, and every label after goes through the dict. Else
    the graph keeps the values and the table, and builds its dict only
    when a label is first looked up. Either way, one string is made per
    label.
    """

    def __init__(self, seeded: dict[str, int]):
        # a copy of ``seeded`` in which a new label takes the next index
        self._index = defaultdict(None, seeded)
        self._index.default_factory = self._index.__len__
        self._ia, self._ib = [np.zeros(0, _ID)], [np.zeros(0, _ID)]
        self._w, self._edge = [np.zeros(0)], [np.zeros(0, dtype=bool)]
        self.fault = None
        # value -> id (-1: not yet numbered), until the labels go to the dict
        self._table = None if seeded else np.zeros(0, _ID)
        self._new, self._cells = [], 0  # each chunk's new values; label cells taken

    def add(self, source: list | np.ndarray, target: list | np.ndarray,
            weight: list | None = None, fault: Exception | None = None) -> None:
        """Take a chunk of records held as columns, unless a record of an
        earlier chunk broke a rule. ``fault`` is the error of the record
        after the chunk's last, kept when no record of the chunk breaks a
        label or weight rule."""
        if self.fault is not None:
            return
        chunk = None
        if _integers(source) and _integers(target):
            chunk = self._number(source, target, weight)
            if chunk is None:
                source, target = _decimal(source), _decimal(target)
        if chunk is None:
            self._to_dict()
            chunk, found = _intern(source, target, weight, self._index, sum(map(len, self._edge)))
            fault = fault if found is None else found
        for parts, part in zip((self._ia, self._ib, self._w, self._edge), chunk):
            parts.append(part)
        self.fault = fault

    def _number(self, source: np.ndarray, target: np.ndarray, weight):
        """(ia, ib, w, edge mask) of a chunk of integer labels, its new
        values numbered through the table; None when the table does not
        take it, or a weight is one float() rejects."""
        if self._table is None:
            return None
        n = len(source)
        self._cells += 2 * n
        ends = np.empty(2 * n, np.int64)  # endpoints interleaved in record order
        ends[0::2], ends[1::2] = source, target
        bound = max(_TABLE_FLOOR, _TABLE_PER_CELL * self._cells)
        if n and not 0 <= ends.min() <= ends.max() < bound:
            return None
        edge = np.ones(n, dtype=bool)
        try:
            w = _weights(weight, edge)
        except (TypeError, ValueError, OverflowError):  # a weight float() rejects
            return None
        if n and ends.max() >= len(self._table):
            grown = min(max(int(ends.max()) + 1, 2 * len(self._table)), bound)
            self._table = np.concatenate(
                [self._table, np.full(grown - len(self._table), -1, _ID)])
        ids = self._table[ends]
        new = ends[ids < 0]
        if len(new):
            new = new[np.sort(np.unique(new, return_index=True)[1])]  # by first appearance
            count = sum(map(len, self._new))
            self._table[new] = np.arange(count, count + len(new), dtype=_ID)
            self._new.append(new)
            ids = self._table[ends]
        return ids[0::2], ids[1::2], w, edge

    def _values(self) -> np.ndarray:
        """The values numbered through the table, in their order."""
        return np.concatenate([np.zeros(0, np.int64), *self._new])

    def _to_dict(self) -> None:
        """Enter the labels numbered through the table into the dict; the
        table is then done."""
        if self._table is not None:
            labels = _decimal(self._values())
            self._index.update(zip(labels, range(len(labels))))
            self._table = self._new = None

    def graph(self) -> Graph:
        """The graph of every chunk taken, after the array checks. It looks
        its labels up by their dict or, when every label came through the
        table, by their values and the table."""
        if self._table is None:
            index = dict(self._index)
            labels, lookup = tuple(index), {"index": index}
        else:
            values = self._values()
            labels, lookup = tuple(_decimal(values)), {"values": values, "table": self._table}
        w = [np.ones(len(a)) if x is None else x for a, x in zip(self._ia, self._w)]
        cols = (labels, *map(np.concatenate, (self._ia, self._ib, w, self._edge)))
        del w  # the chunks are freed before the checks
        self._index = self._table = self._new = self._ia = self._ib = self._w = self._edge = None
        return _checked_graph(cols, self.fault, lookup)


def _integers(column) -> bool:
    return isinstance(column, np.ndarray) and column.dtype.kind in "iu"


def _decimal(values: np.ndarray) -> list[str]:
    """The decimal text of each integer."""
    return list(map(str, values.tolist()))


def _weights(weight, edge: np.ndarray) -> np.ndarray | None:
    """The weights of a chunk's edge records (``edge`` masks them) as
    floats, None where all are 1 (``weight`` None); a weight of None is 1.
    Raises what float() raises on a weight it rejects."""
    if weight is None:
        return None
    return np.fromiter((1.0 if x is None else float(x) for x in compress(weight, edge)),
                       np.float64, int(edge.sum()))


def _record_columns(records: Iterable) -> tuple[list, list, list | None, Exception | None]:
    """(source, target, weight) columns of records of 1 to 3 fields, a
    field None where a record is shorter (a record whose second field is
    None is a bare vertex), and None or the error that ends them: that of
    the first record of another shape, or the one raised while a record,
    or its ``tuple()``, is drawn, placed after the last record read."""
    rows, fault = [], None
    try:
        rows.extend(map(tuple, records))
    except Exception as exc:
        fault = exc
    lens = np.fromiter(map(len, rows), np.intp, len(rows))
    for k in np.flatnonzero((lens == 0) | (lens > 3)).tolist():
        if not rows[k] or rows[k][1] is not None:
            fault = ValueError(f"record {k}: expected 1-3 fields, got {rows[k]!r}")
            del rows[k:]
            lens = lens[:k]
            break
    short, long = int(lens.min(initial=3)), int(lens.max(initial=0))
    weight = _column(rows, 2, short, long) if long >= 3 else None
    return _column(rows, 0, short, long), _column(rows, 1, short, long), weight, fault


def _column(records: list, j: int, short: int, long: int) -> list:
    """Field j of every record, None where a record is shorter."""
    if j < short:
        return list(map(itemgetter(j), records))
    if j >= long:
        return [None] * len(records)
    return [r[j] if len(r) > j else None for r in records]


def _intern(source: list, target: list, weight, index: defaultdict, start: int = 0):
    """(ia, ib, w, edge mask) of one chunk of records held as columns (a
    None target: a bare vertex; a None ``weight``: all 1, returned as
    None), its new labels numbered into ``index``, and None. When a
    record breaks a label or weight rule, the labels are rolled back and
    the chunk is cut before the first such record (:func:`_first_fault`,
    records numbered from ``start``): the columns are those of the
    records before it, and its error comes in place of None."""
    n, before = len(source), len(index)
    edge = np.fromiter(map(is_not, target, repeat(None)), bool, n)
    bare = np.flatnonzero(~edge).tolist()
    # endpoints interleaved in record order; a bare record names its vertex twice
    ends = [None] * (2 * n)
    ends[0::2] = source
    ends[1::2] = target
    for i in bare:
        ends[2 * i + 1] = ends[2 * i]
    try:
        w = _weights(weight, edge)
        ids = np.fromiter(map(index.__getitem__, ends), _ID, 2 * n)
    except (TypeError, ValueError, OverflowError):  # a weight float() rejects, an unhashable label
        ids = None
    new = list(islice(reversed(index), len(index) - before))
    if ids is None or "" in new or not all(map(isinstance, new, repeat(str))):
        while len(index) > before:
            index.popitem()
        k, fault = _first_fault(source, target, weight, start)
        cut = None if weight is None else weight[:k]
        return _intern(source[:k], target[:k], cut, index)[0], fault
    ia, ib = ids[0::2], ids[1::2]
    if bare:
        ia, ib = ia[edge], ib[edge]
    return (ia, ib, w, edge), None


def _first_fault(source: list, target: list, weight, start: int):
    """The index in a chunk of the first record that breaks a label or
    weight rule, checked in record order (its source label, its target
    label, then an edge's weight), and its error, naming it as record
    ``start`` + index; (len(source), None) when none does."""
    for k, (a, b, x) in enumerate(zip(source, target, repeat(None) if weight is None else weight)):
        try:
            _check_label(a, start + k)
            if b is not None:
                _check_label(b, start + k)
                if x is not None:
                    float(x)
        except (TypeError, ValueError, OverflowError) as exc:
            return k, exc
    return len(source), None


def _check_label(label, pos: int | None) -> None:
    if not isinstance(label, str) or not label:
        where = "vertex list" if pos is None else f"record {pos}"
        raise ValueError(f"{where}: vertex label must be a non-empty string, got {label!r}")
