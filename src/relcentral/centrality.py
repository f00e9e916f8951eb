"""Degree, harmonic closeness, and vertex/edge betweenness.

All metrics come in one flavor that covers both worlds: pass a uniform
relevance vector to get the classic definition, a non-trivial one to
get the relevance-weighted extension. Sums run over ordered vertex
pairs, so both (s,t) and (t,s) contribute; vertex betweenness credits
interior vertices only, edge betweenness credits every edge of a path
including the ones touching its endpoints.

Harmonic closeness and betweenness come from one engine, ``_batched``,
whose ``sweep`` runs blocks of sources sized from the graph, so one
sweep serves both when both are asked for. Per block it lays the shortest-path
DAGs out level by level, from a BFS on unit weights and from
label-correcting distances on any others, and each recurrence over them
is one ``bincount`` per level, with numpy alone. Block partials are
always merged in block order, so results do not depend on the worker
count.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from ._batched import sweep
from .errors import (
    LengthMismatchError,
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
    DEGREE = "degree"
    HARMONIC = "harmonic"
    VERTEX_BETWEENNESS = "betweenness"
    EDGE_BETWEENNESS = "edge-betweenness"


@dataclass(frozen=True, eq=False)
class CentralityReport:
    """Metric values over a graph and the order that ranks them.

    ``values`` has one entry per vertex of ``graph``, or per edge for an
    edge report, in the graph's index order. ``order`` lists those
    indices by descending value, ties broken by ascending index, so
    repeated runs agree bit for bit. ``ids`` are the vertex labels, or
    (label, label) pairs for an edge report, and ``ranking`` the ids in
    ``order``; both are made from the graph only when read. Reports
    compare by identity, as their arrays have no single truth value.
    """

    metric: Metric
    kind: str  # "vertex" or "edge"
    graph: Graph
    values: np.ndarray
    order: np.ndarray
    f_label: str
    relevance_source: str

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

    def value_of(self, element) -> float:
        return self.as_dict()[element]


def _make_report(
    metric: Metric,
    kind: str,
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
    return CentralityReport(metric, kind, g, values, order, f.label, relevance_source)


def _resolve(g: Graph, R: RelevanceVector | None, relevance_source: str | None):
    if R is None:
        R = RelevanceVector.ones(g.vertex_count)
    if len(R) != g.vertex_count:
        raise LengthMismatchError(
            f"relevance has {len(R)} entries for a {g.vertex_count}-vertex graph"
        )
    if relevance_source is None:
        relevance_source = "uniform" if R.is_uniform() else "explicit"
    return R, relevance_source


# --- degree ---


def degree_centrality(
    g: Graph,
    R: RelevanceVector | None = None,
    f: RelevanceFunction = PRODUCT,
    relevance_source: str | None = None,
) -> CentralityReport:
    """d(s) = sum of f(R_s, R_t) over neighbors t of s."""
    if f.variant.is_path:
        raise PathVariantNotApplicableError(
            f"{f.label} needs a path; degree only sees direct neighbors"
        )
    R, relevance_source = _resolve(g, R, relevance_source)
    u, v = g.edge_endpoints
    # the arcs u->v, then v->u, each added in edge order: the per-vertex
    # sums of one bincount over both arcs, bit for bit
    vals = np.bincount(u, weights=pair_values(f, u, v, R), minlength=g.vertex_count)
    np.add.at(vals, v, pair_values(f, v, u, R))
    return _make_report(Metric.DEGREE, "vertex", g, vals, f, relevance_source)


# --- harmonic and betweenness: one sweep over source blocks ---


def _path_reports(
    g: Graph,
    R: RelevanceVector | None,
    f: RelevanceFunction,
    workers: int,
    relevance_source: str | None,
    harmonic: bool = True,
    betweenness: bool = True,
):
    """Harmonic, vertex and edge betweenness reports from a single sweep.

    Reports not asked for are None. The harmonic report is the same
    whether or not betweenness rides along.
    """
    R, relevance_source = _resolve(g, R, relevance_source)
    h, vb, eb = sweep(g, R, f, workers, harmonic, betweenness)
    hrep = vrep = erep = None
    if harmonic:
        hrep = _make_report(Metric.HARMONIC, "vertex", g, h, f, relevance_source)
    if betweenness:
        vrep = _make_report(Metric.VERTEX_BETWEENNESS, "vertex", g, vb, f, relevance_source)
        erep = _make_report(Metric.EDGE_BETWEENNESS, "edge", g, eb, f, relevance_source)
    return hrep, vrep, erep


# --- public metric entry points ---


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
    return _path_reports(g, R, f, workers, relevance_source, betweenness=False)[0]


def betweenness_reports(
    g: Graph,
    R: RelevanceVector | None = None,
    f: RelevanceFunction = PRODUCT,
    workers: int = 1,
    relevance_source: str | None = None,
) -> tuple[CentralityReport, CentralityReport]:
    """Vertex and edge betweenness from a single sweep."""
    return _path_reports(g, R, f, workers, relevance_source, harmonic=False)[1:]


def vertex_betweenness(
    g: Graph,
    R: RelevanceVector | None = None,
    f: RelevanceFunction = PRODUCT,
    workers: int = 1,
    relevance_source: str | None = None,
) -> CentralityReport:
    return betweenness_reports(g, R, f, workers, relevance_source)[0]


def edge_betweenness(
    g: Graph,
    R: RelevanceVector | None = None,
    f: RelevanceFunction = PRODUCT,
    workers: int = 1,
    relevance_source: str | None = None,
) -> CentralityReport:
    return betweenness_reports(g, R, f, workers, relevance_source)[1]
