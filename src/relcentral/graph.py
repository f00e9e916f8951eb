"""Immutable undirected simple graphs with positive edge weights.

Vertices carry external string labels and dense internal indices
(0..V-1, assigned in first-appearance order). Edge weights are
distances: lower weight means the endpoints are closer.

A graph is stored as flat arrays: edge k joins ``u[k] < v[k]`` with
weight ``w[k]``, edges in construction order, and the label->index
dict is the only per-vertex Python structure. Everything else is
derived from these arrays on first use: the CSR neighbor lists the BFS
engine walks (built with numpy alone), the ``Edge`` records, per-vertex
adjacency lists and edge-id lookup that the per-source reference code
walks, and a scipy adjacency matrix for tests and inspection. No metric
reads that matrix, and no metric imports scipy.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, repeat
from operator import is_not, itemgetter
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .errors import (
    DuplicateEdgeError,
    NonPositiveWeightError,
    SelfLoopError,
    UnknownVertexError,
)

if TYPE_CHECKING:
    from scipy import sparse

__all__ = ["Edge", "Graph", "build_graph", "build_graph_columns", "neighbors"]


@dataclass(frozen=True)
class Edge:
    """Undirected edge, endpoints stored as internal indices with u < v."""

    u: int
    v: int
    weight: float


class Graph:
    """Validated undirected simple graph. Immutable after construction;
    safe to share across worker threads. Made by :func:`build_graph`.
    """

    def __init__(self, index: dict[str, int], u: np.ndarray, v: np.ndarray, w: np.ndarray):
        self._index = index
        self.labels: tuple[str, ...] = tuple(index)
        for a in (u, v, w):
            a.setflags(write=False)
        self._u, self._v, self._w = u, v, w
        self.weighted: bool = bool(np.any(w != 1.0))

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

    def edge_id(self, u: int, v: int) -> int:
        """Edge index for an internal endpoint pair (either order)."""
        if 0 <= u < self.vertex_count:
            for t, ei, _ in self.adjacency[u]:
                if t == v:
                    return ei
        raise UnknownVertexError(f"no edge between indices {u} and {v}")

    def neighbors(self, label: str) -> list[tuple[str, float]]:
        """Adjacent vertices with edge weights, ascending by internal index."""
        i = self.index_of(label)
        return [(self.labels[j], w) for j, _, w in self.adjacency[i]]

    def edge_labels(self) -> list[tuple[str, str]]:
        """Edges as (label, label) pairs, in construction order."""
        lab = self.labels.__getitem__
        return list(zip(map(lab, self._u.tolist()), map(lab, self._v.tolist())))

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
        order = np.lexsort((dst, src))
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        out = (indptr, dst[order], np.tile(np.arange(m), 2)[order])
        for a in out:
            a.setflags(write=False)
        return out

    @cached_property
    def adjacency_matrix(self) -> sparse.csr_array:
        """Symmetric 0/1 CSR adjacency (scipy), for tests and inspection."""
        from scipy import sparse

        indptr, nbr, _ = self.neighbor_csr
        n = self.vertex_count
        return sparse.csr_array((np.ones(len(nbr)), nbr, indptr), shape=(n, n))

    # --- views for the per-source reference code, built on first use ---

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(map(Edge, self._u.tolist(), self._v.tolist(), self._w.tolist()))

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, int, float], ...], ...]:
        """Per vertex, (neighbor, edge id, weight) ascending by neighbor."""
        indptr, nbr, eid = self.neighbor_csr
        arcs = list(zip(nbr.tolist(), eid.tolist(), self._w[eid].tolist()))
        bounds = indptr.tolist()
        return tuple(tuple(arcs[a:b]) for a, b in zip(bounds, bounds[1:]))

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
    cols = None if fault else _intern_columns(records, index)
    if cols is None:
        cols, fault = _intern_records(records, index, fault)
    return _checked_graph(cols, fault)


def build_graph_columns(source: list, target: list, weight: list | None = None) -> Graph:
    """Build a validated graph from records held as columns.

    Record k is ``(source[k],)``, a bare vertex, when ``target[k]`` is
    None, else ``(source[k], target[k], weight[k])``; a weight is 1 when
    ``weight`` or ``weight[k]`` is None. The graph, and the error of a
    faulty record, are those of :func:`build_graph` on the records, but
    no record tuple is made unless a record breaks a label or weight
    rule. This is the form the edge CSV reader returns.
    """
    cols = _intern(source, target, weight, {})
    if cols is None:
        return build_graph(list(zip(source, target, weight or repeat(None))))
    return _checked_graph(cols, None)


def _checked_graph(cols, fault) -> Graph:
    """The graph of interned columns after the array checks (self-loop,
    weight, duplicate), whose first faulty record decides the error;
    ``fault``, from a later record, is raised when they pass."""
    index, ia, ib, w, record_pos = cols
    n = len(index)
    u, v = np.minimum(ia, ib), np.maximum(ia, ib)
    loop = ia == ib
    bad_weight = ~(np.isfinite(w) & (w > 0.0))
    key = u * n + v
    repeated = np.zeros(len(u), dtype=bool)  # every occurrence of a pair after its first
    ordered = np.sort(key)
    if (ordered[1:] == ordered[:-1]).any():
        repeated[:] = True
        repeated[np.unique(key, return_index=True)[1]] = False
    faulty = loop | bad_weight | repeated
    if faulty.any():
        k = int(np.argmax(faulty))
        labels = list(index)
        pos, a, b = int(record_pos[k]), labels[ia[k]], labels[ib[k]]
        if loop[k]:
            raise SelfLoopError(f"record {pos}: self-loop at {a!r}")
        if bad_weight[k]:
            raise NonPositiveWeightError(f"record {pos}: weight {float(w[k])!r} for {a!r}-{b!r}")
        raise DuplicateEdgeError(f"record {pos}: duplicate edge {a!r}-{b!r}")
    if fault is not None:
        raise fault
    return Graph(index, u, v, w)


def _column(records: list, j: int, short: int, long: int) -> list:
    """Field j of every record, None where a record is shorter."""
    if j < short:
        return list(map(itemgetter(j), records))
    if j >= long:
        return [None] * len(records)
    return [r[j] if len(r) > j else None for r in records]


def _intern_columns(records, seeded: dict[str, int]):
    """:func:`_intern` of the columns of tuple or list records; None also
    when a record has no column form."""
    lens = set(map(len, records))
    if not (set(map(type, records)) <= {tuple, list} and lens <= {1, 2, 3}):
        return None
    short, long = min(lens, default=3), max(lens, default=0)
    weight = _column(records, 2, short, long) if long == 3 else None
    return _intern(_column(records, 0, short, long), _column(records, 1, short, long),
                   weight, seeded)


def _intern(source: list, target: list, weight, seeded: dict[str, int]):
    """(index, ia, ib, w, record positions) of the records of the columns
    (a None target: a bare vertex; a None ``weight`` or weight: 1), in
    whole columns; None when a record breaks a rule before the array
    checks, which only the per-record pass can place."""
    n = len(source)
    # endpoints interleaved in record order; a bare record names its vertex twice
    ends = [None] * (2 * n)
    ends[0::2] = source
    ends[1::2] = target
    edge = np.fromiter(map(is_not, target, repeat(None)), bool, n)
    pos = np.flatnonzero(edge)
    for i in np.flatnonzero(~edge).tolist():
        ends[2 * i + 1] = ends[2 * i]
    index = defaultdict(None, seeded)
    index.default_factory = index.__len__  # a new label takes the next index
    try:
        ids = np.fromiter(map(index.__getitem__, ends), np.int64, 2 * n)
    except TypeError:  # an unhashable label
        return None
    if "" in index or not set(map(type, index)) <= {str}:
        return None
    if weight is None:
        w = np.ones(len(pos))
    else:
        try:
            w = np.fromiter((1.0 if x is None else float(x) for x in compress(weight, edge)),
                            np.float64, len(pos))
        except (TypeError, ValueError):  # a weight float() rejects
            return None
    ia, ib = ids[0::2], ids[1::2]
    if len(pos) < n:
        ia, ib = ia[pos], ib[pos]
    return dict(index), ia, ib, w, pos


def _intern_records(records, seeded: dict[str, int], fault):
    """The per-record rules: the columns of the records before the first
    one that breaks a rule, and that record's exception (else ``fault``)."""
    index = dict(seeded)
    ends_a, ends_b, weights, record_pos = [], [], [], []
    try:
        for pos, rec in enumerate(records):
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


def neighbors(g: Graph, v: str) -> list[tuple[str, float]]:
    """Module-level alias for :meth:`Graph.neighbors`."""
    return g.neighbors(v)
