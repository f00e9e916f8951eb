"""Immutable undirected simple graphs with positive edge weights.

Vertices carry external string labels and dense internal indices
(0..V-1, assigned in first-appearance order). Edge weights are
distances: lower weight means the endpoints are closer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np
from scipy import sparse

from .errors import (
    DuplicateEdgeError,
    NonPositiveWeightError,
    SelfLoopError,
    UnknownVertexError,
)

__all__ = ["Edge", "Graph", "build_graph", "neighbors"]


@dataclass(frozen=True)
class Edge:
    """Undirected edge, endpoints stored as internal indices with u < v."""

    u: int
    v: int
    weight: float


class Graph:
    """Validated undirected simple graph. Immutable after construction;
    safe to share across worker threads."""

    def __init__(self, labels: Sequence[str], edges: Sequence[Edge]):
        self.labels: tuple[str, ...] = tuple(labels)
        self.edges: tuple[Edge, ...] = tuple(edges)
        self._index: dict[str, int] = {lab: i for i, lab in enumerate(self.labels)}
        n = len(self.labels)

        adjacency: list[list[tuple[int, int, float]]] = [[] for _ in range(n)]
        for ei, e in enumerate(self.edges):
            adjacency[e.u].append((e.v, ei, e.weight))
            adjacency[e.v].append((e.u, ei, e.weight))
        for lst in adjacency:
            lst.sort()
        self.adjacency: tuple[tuple[tuple[int, int, float], ...], ...] = tuple(
            tuple(lst) for lst in adjacency
        )
        self.weighted: bool = any(e.weight != 1.0 for e in self.edges)
        self._edge_index: dict[tuple[int, int], int] = {
            (e.u, e.v): ei for ei, e in enumerate(self.edges)
        }

    # --- basic queries ---

    @property
    def vertex_count(self) -> int:
        return len(self.labels)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

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
        key = (u, v) if u < v else (v, u)
        try:
            return self._edge_index[key]
        except KeyError:
            raise UnknownVertexError(f"no edge between indices {u} and {v}") from None

    def neighbors(self, label: str) -> list[tuple[str, float]]:
        """Adjacent vertices with edge weights, ascending by internal index."""
        i = self.index_of(label)
        return [(self.labels[j], w) for j, _, w in self.adjacency[i]]

    def edge_records(self) -> list[tuple[str, str, float]]:
        """Edges as (label, label, weight) triples, in construction order."""
        return [(self.labels[e.u], self.labels[e.v], e.weight) for e in self.edges]

    def edge_labels(self) -> list[tuple[str, str]]:
        return [(self.labels[e.u], self.labels[e.v]) for e in self.edges]

    # --- array views used by the batched engine ---

    @property
    def adjacency_matrix(self) -> sparse.csr_array:
        """Symmetric 0/1 CSR adjacency (built lazily, cached)."""
        if not hasattr(self, "_adj_csr"):
            n = self.vertex_count
            rows, cols = [], []
            for e in self.edges:
                rows += [e.u, e.v]
                cols += [e.v, e.u]
            data = np.ones(len(rows))
            self._adj_csr = sparse.csr_array(
                (data, (rows, cols)), shape=(n, n), dtype=np.float64
            )
        return self._adj_csr

    @property
    def edge_endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """Arrays (u[], v[]) of internal endpoint indices, edge order."""
        if not hasattr(self, "_edge_uv"):
            u = np.fromiter((e.u for e in self.edges), dtype=np.int64, count=self.edge_count)
            v = np.fromiter((e.v for e in self.edges), dtype=np.int64, count=self.edge_count)
            self._edge_uv = (u, v)
        return self._edge_uv

    @property
    def edge_weights(self) -> np.ndarray:
        """Edge weights as an array, edge order."""
        if not hasattr(self, "_edge_w"):
            self._edge_w = np.fromiter(
                (e.weight for e in self.edges), dtype=np.float64, count=self.edge_count
            )
        return self._edge_w

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
    """
    labels: list[str] = []
    index: dict[str, int] = {}

    def intern(label: str) -> int:
        if label not in index:
            index[label] = len(labels)
            labels.append(label)
        return index[label]

    for lab in vertices:
        _check_label(lab, "vertex list")
        intern(lab)

    edges: list[Edge] = []
    seen: set[tuple[int, int]] = set()
    for pos, rec in enumerate(edge_records):
        rec = tuple(rec)
        if len(rec) >= 2 and rec[1] is None:
            rec = rec[:1]
        if len(rec) == 1:
            _check_label(rec[0], f"record {pos}")
            intern(rec[0])
            continue
        if len(rec) == 2:
            a, b = rec
            w = 1.0
        elif len(rec) == 3:
            a, b, w = rec
            w = 1.0 if w is None else float(w)
        else:
            raise ValueError(f"record {pos}: expected 1-3 fields, got {rec!r}")
        _check_label(a, f"record {pos}")
        _check_label(b, f"record {pos}")
        if a == b:
            raise SelfLoopError(f"record {pos}: self-loop at {a!r}")
        if not math.isfinite(w) or w <= 0.0:
            raise NonPositiveWeightError(f"record {pos}: weight {w!r} for {a!r}-{b!r}")
        ia, ib = intern(a), intern(b)
        key = (ia, ib) if ia < ib else (ib, ia)
        if key in seen:
            raise DuplicateEdgeError(f"record {pos}: duplicate edge {a!r}-{b!r}")
        seen.add(key)
        edges.append(Edge(key[0], key[1], w))

    return Graph(labels, edges)


def _check_label(label, where: str) -> None:
    if not isinstance(label, str) or not label:
        raise ValueError(f"{where}: vertex label must be a non-empty string, got {label!r}")


def neighbors(g: Graph, v: str) -> list[tuple[str, float]]:
    """Module-level alias for :meth:`Graph.neighbors`."""
    return g.neighbors(v)
