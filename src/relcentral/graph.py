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
and the table that numbered them, so that a reader of the same integer
labels finds their indices without the dict.
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


class Graph:
    """Validated undirected simple graph. Immutable after construction;
    safe to share across worker threads. Made by :func:`build_graph`.

    ``values`` and ``table``, when given, are every label's integer value
    (``labels[i]`` is its decimal text) and a table from value to index
    (-1: no vertex), both read-only. A view built on first use (a
    ``cached_property``) may be built twice by threads that race for it,
    which is harmless: both builds are equal.
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

    def _indices_of_values(self, values: np.ndarray) -> np.ndarray:
        """The index of the vertex labelled by each non-negative integer
        value, -1 where none is; for a graph with integer ``_values``."""
        idx = np.full(len(values), -1, np.intp)
        inside = values < len(self._table)
        idx[inside] = self._table[values[inside]]
        return idx

    def edge_labels(self) -> list[tuple[str, str]]:
        """Edges as (label, label) pairs, in construction order."""
        lab = self.labels.__getitem__
        return list(zip(map(lab, self._u.tolist()), map(lab, self._v.tolist())))

    @cached_property
    def edge_ids(self) -> tuple[tuple[str, str], ...]:
        """``edge_labels()`` as one tuple, built once: the ids of the
        graph's edge reports, which the JSON writer knows by identity."""
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

    records, fault = edge_records, None
    if not isinstance(records, (list, tuple)):
        records = []
        try:
            records.extend(edge_records)
        except Exception as exc:
            fault = exc  # placed like a fault in the record after the last one read
    interner = _Interner(index)
    cols = None if fault else _record_columns(records)
    if cols is None:
        interner.add_records(records, fault)
    else:
        interner.add(*cols)
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
    duplicate), whose first faulty record decides the error; ``fault``,
    from a later record, is raised when they pass. ``lookup`` holds the
    graph's keyword arguments for finding a label's index."""
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
            raise SelfLoopError(f"record {pos}: self-loop at {a!r}")
        if bad_weight[k]:
            raise NonPositiveWeightError(f"record {pos}: weight {float(w[k])!r} for {a!r}-{b!r}")
        raise DuplicateEdgeError(f"record {pos}: duplicate edge {a!r}-{b!r}")
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
    :meth:`graph`. A chunk with a record that breaks a label or weight
    rule goes through the per-record pass, which places the fault, and
    no chunk after it is taken.

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
        self._index = _numbering(seeded)
        self._ia, self._ib = [np.zeros(0, _ID)], [np.zeros(0, _ID)]
        self._w, self._edge = [np.zeros(0)], [np.zeros(0, dtype=bool)]
        self.fault = None
        # value -> id (-1: not yet numbered), until the labels go to the dict
        self._table = None if seeded else np.zeros(0, _ID)
        self._new, self._cells = [], 0  # each chunk's new values; label cells taken

    def add(self, source: list | np.ndarray, target: list | np.ndarray,
            weight: list | None = None) -> bool:
        """Take a chunk of records held as columns; False when the column
        pass could not take it."""
        if self.fault is not None:
            return False
        chunk = None
        if _integers(source) and _integers(target):
            chunk = self._number(source, target, weight)
            if chunk is None:
                source, target = _decimal(source), _decimal(target)
        if chunk is None:
            self._to_dict()
            chunk = _intern(source, target, weight, self._index)
        if chunk is None:
            self.add_records(list(zip(source, target, weight or repeat(None))))
            return False
        for parts, part in zip((self._ia, self._ib, self._w, self._edge), chunk):
            parts.append(part)
        return True

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
        except (TypeError, ValueError):  # a weight float() rejects
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

    def add_records(self, records: list, fault=None) -> None:
        """Take a chunk of records through the per-record rules."""
        self._to_dict()
        start = sum(map(len, self._edge))
        (index, ia, ib, w, pos), self.fault = _intern_records(records, self._index, fault, start)
        self._index = _numbering(index)
        edge = np.zeros(len(records), dtype=bool)
        edge[np.array(pos, dtype=np.intp) - start] = True
        for parts, part in zip((self._ia, self._ib, self._w, self._edge), (ia, ib, w, edge)):
            parts.append(part)

    def columns(self):
        """(labels, ia, ib, w, edge mask) of every chunk taken, joined, and
        the graph's lookup of its labels: their dict, or, when every label
        came through the table, their values and the table."""
        if self._table is None:
            index = dict(self._index)
            labels, lookup = tuple(index), {"index": index}
        else:
            values = self._values()
            labels, lookup = tuple(_decimal(values)), {"values": values, "table": self._table}
        self._index = self._table = self._new = None
        w = [np.ones(len(a)) if x is None else x for a, x in zip(self._ia, self._w)]
        return (labels, *map(np.concatenate, (self._ia, self._ib, w, self._edge))), lookup

    def graph(self) -> Graph:
        cols, lookup = self.columns()
        self._ia = self._ib = self._w = self._edge = None  # freed before the checks
        return _checked_graph(cols, self.fault, lookup)


def _integers(column) -> bool:
    return isinstance(column, np.ndarray) and column.dtype.kind in "iu"


def _decimal(values: np.ndarray) -> list[str]:
    """The decimal text of each integer."""
    return list(map(str, values.tolist()))


def _weights(weight, edge: np.ndarray) -> np.ndarray | None:
    """The weights of a chunk's edge records (``edge`` masks them) as
    floats, None where all are 1 (``weight`` None); a weight of None is 1.
    Raises TypeError or ValueError on a weight float() rejects."""
    if weight is None:
        return None
    return np.fromiter((1.0 if x is None else float(x) for x in compress(weight, edge)),
                       np.float64, int(edge.sum()))


def _numbering(index: dict[str, int]) -> defaultdict:
    """A copy of ``index`` in which a new label takes the next index."""
    out = defaultdict(None, index)
    out.default_factory = out.__len__
    return out


def _record_columns(records: list):
    """(source, target, weight) columns of tuple or list records of 1 to
    3 fields, a field None where a record is shorter; None when a record
    has no column form."""
    if not set(map(type, records)) <= {tuple, list}:
        return None
    lens = set(map(len, records))
    if not lens <= {1, 2, 3}:
        return None
    short, long = min(lens, default=3), max(lens, default=0)
    weight = _column(records, 2, short, long) if long == 3 else None
    return _column(records, 0, short, long), _column(records, 1, short, long), weight


def _column(records: list, j: int, short: int, long: int) -> list:
    """Field j of every record, None where a record is shorter."""
    if j < short:
        return list(map(itemgetter(j), records))
    if j >= long:
        return [None] * len(records)
    return [r[j] if len(r) > j else None for r in records]


def _intern(source: list, target: list, weight, index: defaultdict):
    """(ia, ib, w, edge mask) of one chunk of records held as columns (a
    None target: a bare vertex; a None ``weight``: all 1, returned as
    None), its new labels numbered into ``index``; None, with ``index``
    as it was, when a record breaks a rule before the array checks,
    which only the per-record pass can place."""
    n, before = len(source), len(index)
    edge = np.fromiter(map(is_not, target, repeat(None)), bool, n)
    bare = np.flatnonzero(~edge).tolist()
    try:
        w = _weights(weight, edge)
    except (TypeError, ValueError):  # a weight float() rejects
        return None
    # endpoints interleaved in record order; a bare record names its vertex twice
    ends = [None] * (2 * n)
    ends[0::2] = source
    ends[1::2] = target
    for i in bare:
        ends[2 * i + 1] = ends[2 * i]
    try:
        ids = np.fromiter(map(index.__getitem__, ends), _ID, 2 * n)
    except TypeError:  # an unhashable label
        ids = None
    new = list(islice(reversed(index), len(index) - before))
    if ids is None or "" in new or not set(map(type, new)) <= {str}:
        while len(index) > before:
            index.popitem()
        return None
    ia, ib = ids[0::2], ids[1::2]
    if bare:
        ia, ib = ia[edge], ib[edge]
    return ia, ib, w, edge


def _intern_records(records, seeded: dict[str, int], fault, start: int = 0):
    """The per-record rules: the columns of the records before the first
    one that breaks a rule, and that record's exception (else ``fault``).
    Records are numbered from ``start``."""
    index = dict(seeded)
    ends_a, ends_b, weights, record_pos = [], [], [], []
    try:
        for pos, rec in enumerate(records, start):
            rec = tuple(rec)
            if len(rec) >= 2 and rec[1] is None:
                rec = rec[:1]
            if len(rec) == 1:
                _check_label(rec[0], pos)
                index.setdefault(rec[0], len(index))
                continue
            if len(rec) == 2:
                a, b = rec
                w = 1.0
            elif len(rec) == 3:
                a, b, w = rec
                w = 1.0 if w is None else float(w)
            else:
                raise ValueError(f"record {pos}: expected 1-3 fields, got {rec!r}")
            _check_label(a, pos)
            _check_label(b, pos)
            ends_a.append(index.setdefault(a, len(index)))
            ends_b.append(index.setdefault(b, len(index)))
            weights.append(w)
            record_pos.append(pos)
    except Exception as exc:
        # raised after the array checks, which only see the records
        # before this one and so take precedence
        fault = exc
    cols = (index, np.array(ends_a, dtype=np.int64), np.array(ends_b, dtype=np.int64),
            np.array(weights, dtype=np.float64), record_pos)
    return cols, fault


def _check_label(label, pos: int | None) -> None:
    if not isinstance(label, str) or not label:
        where = "vertex list" if pos is None else f"record {pos}"
        raise ValueError(f"{where}: vertex label must be a non-empty string, got {label!r}")
