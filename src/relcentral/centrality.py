"""Degree, harmonic closeness, and vertex/edge betweenness.

All metrics come in one flavor that covers both worlds: pass a uniform
relevance vector to get the classic definition, a non-trivial one to
get the relevance-weighted extension. Sums run over ordered vertex
pairs, so both (s,t) and (t,s) contribute; vertex betweenness credits
interior vertices only, edge betweenness credits every edge of a path
including the ones touching its endpoints.

Harmonic closeness and betweenness come from one engine, ``_batched``,
whose ``sweep`` runs blocks of sources sized from the graph, so one
sweep serves both when both are asked for. Per block it lays the
shortest-path DAGs out level by level, from a BFS on unit weights and
from label-correcting distances on any others, and each recurrence over
them is one ``bincount`` per level, with numpy alone. Block partials
are always merged in block order, so results do not depend on the
worker count. ``_reports`` alone turns a set of metrics into that work,
or degree's sum over the arcs, and into their reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from ._batched import sweep
from .errors import (
    LengthMismatchError,
    MatrixShapeMismatchError,
    PathVariantNotApplicableError,
    SigmaOverflowError,
)
from .graph import Graph
from .relevance import (
    PRODUCT,
    RelevanceFunction,
    RelevanceVector,
    pair_values,
)

__all__ = [
    "Metric",
    "CentralityReport",
    "degree_centrality",
    "harmonic_centrality",
    "vertex_betweenness",
    "edge_betweenness",
    "betweenness_reports",
]

class Metric(str, Enum):
    """One of the four metrics. Its ``kind`` is what a report of it has
    one value for: "edge" for edge betweenness, "vertex" for the others."""

    DEGREE = "degree"
    HARMONIC = "harmonic"
    VERTEX_BETWEENNESS = "betweenness"
    EDGE_BETWEENNESS = "edge-betweenness"

    @property
    def kind(self) -> str:
        return "edge" if self is Metric.EDGE_BETWEENNESS else "vertex"


# the order of sweep's (harmonic, vertex, edge) arrays
PATH_METRICS = (Metric.HARMONIC, Metric.VERTEX_BETWEENNESS, Metric.EDGE_BETWEENNESS)


@dataclass(frozen=True, eq=False)
class CentralityReport:
    """Metric values over a graph and the order that ranks them.

    ``values`` has one entry per vertex of ``graph``, or per edge when
    the metric's ``kind`` is "edge", in the graph's index order.
    ``order`` lists those indices by descending value, ties broken by
    ascending index, so repeated runs agree bit for bit. ``ids`` are the
    vertex labels, or (label, label) pairs for an edge report, and
    ``ranking`` the ids in ``order``; both are made from the graph only
    when read. Reports compare by identity, as their arrays have no
    single truth value. A matrix f must be an n x n table for the
    graph's n vertices; any other shape is refused before any work.
    """

    metric: Metric
    graph: Graph
    values: np.ndarray
    order: np.ndarray
    f_label: str
    relevance_source: str

    @property
    def kind(self) -> str:  # "vertex" or "edge"
        return self.metric.kind

    @property
    def ids(self) -> tuple:
        return self.graph.labels if self.kind == "vertex" else self.graph.edge_ids

    @cached_property
    def ranking(self) -> tuple:
        return tuple(map(self.ids.__getitem__, self.order.tolist()))

    @property
    def weighted(self) -> bool:
        return self.graph.weighted

    def as_dict(self) -> dict:
        return dict(zip(self.ids, np.asarray(self.values, dtype=np.float64).tolist()))

    @cached_property
    def _by_id(self) -> dict:
        return self.as_dict()

    def value_of(self, element) -> float:
        return self._by_id[element]


def _make_report(
    metric: Metric,
    g: Graph,
    values: np.ndarray,
    f: RelevanceFunction,
    relevance_source: str,
) -> CentralityReport:
    values = np.array(values, dtype=np.float64)  # a copy, made read-only below
    if not np.all(np.isfinite(values)):
        raise SigmaOverflowError(
            f"{metric.value} accumulation overflowed to a non-finite value; "
            "the instance is beyond float64 range"
        )
    order = np.argsort(-values, kind="stable")  # stable: ties keep index order
    for a in (values, order):
        a.setflags(write=False)
    return CentralityReport(metric, g, values, order, f.label, relevance_source)


def _reports(
    g: Graph,
    R: RelevanceVector | None,
    f: RelevanceFunction,
    metrics,
    workers: int = 1,
    relevance_source: str | None = None,
) -> dict[Metric, CentralityReport]:
    """A report per metric of ``metrics``, keyed by ``Metric``.

    Degree sums f over the arcs. The path metrics share one sweep, which
    runs the betweenness recurrence only when a betweenness metric is
    asked for; each report is the same whatever else is asked for.
    """
    metrics = tuple(map(Metric, metrics))
    if Metric.DEGREE in metrics and f.variant.is_path:
        raise PathVariantNotApplicableError(f"{f.label} needs a path; degree sees only neighbors")
    n = g.vertex_count
    if R is None:
        R = RelevanceVector.ones(n)
    if len(R) != n:
        raise LengthMismatchError(f"relevance has {len(R)} entries for a {n}-vertex graph")
    if f.matrix is not None and f.matrix.shape != (n, n):
        raise MatrixShapeMismatchError(
            f"F table is {len(f.matrix)}x{len(f.matrix)} for a {n}-vertex graph"
        )
    if relevance_source is None:
        relevance_source = "uniform" if R.is_uniform() else "explicit"
    values = {}
    if Metric.DEGREE in metrics:
        u, v = g.edge_endpoints
        # the arcs u->v, then v->u, each added in edge order: the per-vertex
        # sums of one bincount over both arcs, bit for bit
        values[Metric.DEGREE] = np.bincount(u, weights=pair_values(f, u, v, R), minlength=n)
        np.add.at(values[Metric.DEGREE], v, pair_values(f, v, u, R))
    harmonic = Metric.HARMONIC in metrics
    betweenness = not {Metric.VERTEX_BETWEENNESS, Metric.EDGE_BETWEENNESS}.isdisjoint(metrics)
    if harmonic or betweenness:
        values.update(zip(PATH_METRICS, sweep(g, R, f, workers, harmonic, betweenness)))
    return {m: _make_report(m, g, values[m], f, relevance_source) for m in metrics}


# --- public metric entry points ---


def degree_centrality(
    g: Graph,
    R: RelevanceVector | None = None,
    f: RelevanceFunction = PRODUCT,
    relevance_source: str | None = None,
) -> CentralityReport:
    """d(s) = sum of f(R_s, R_t) over neighbors t of s."""
    return _reports(g, R, f, [Metric.DEGREE], 1, relevance_source)[Metric.DEGREE]


def harmonic_centrality(
    g: Graph,
    R: RelevanceVector | None = None,
    f: RelevanceFunction = PRODUCT,
    workers: int = 1,
    relevance_source: str | None = None,
) -> CentralityReport:
    """C(s) = sum over reachable t of pair/path weight divided by distance.

    Unreachable targets contribute nothing, so the metric stays finite
    on disconnected graphs. For path variants the per-pair weight is
    the mean of the path weight over all tied shortest paths.
    """
    return _reports(g, R, f, [Metric.HARMONIC], workers, relevance_source)[Metric.HARMONIC]


def betweenness_reports(
    g: Graph,
    R: RelevanceVector | None = None,
    f: RelevanceFunction = PRODUCT,
    workers: int = 1,
    relevance_source: str | None = None,
) -> tuple[CentralityReport, CentralityReport]:
    """Vertex and edge betweenness from a single sweep."""
    return tuple(_reports(g, R, f, PATH_METRICS[1:], workers, relevance_source).values())


def vertex_betweenness(
    g: Graph,
    R: RelevanceVector | None = None,
    f: RelevanceFunction = PRODUCT,
    workers: int = 1,
    relevance_source: str | None = None,
) -> CentralityReport:
    m = Metric.VERTEX_BETWEENNESS
    return _reports(g, R, f, [m], workers, relevance_source)[m]


def edge_betweenness(
    g: Graph,
    R: RelevanceVector | None = None,
    f: RelevanceFunction = PRODUCT,
    workers: int = 1,
    relevance_source: str | None = None,
) -> CentralityReport:
    m = Metric.EDGE_BETWEENNESS
    return _reports(g, R, f, [m], workers, relevance_source)[m]
