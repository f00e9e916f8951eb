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


@dataclass(frozen=True)
class CentralityReport:
    """Per-element metric values plus the induced ranking.

    ``ids`` are vertex labels, or (label, label) pairs for edge
    metrics. ``ranking`` lists ids by descending value, ties broken by
    ascending internal index so repeated runs agree bit for bit.
    """

    metric: Metric
    kind: str  # "vertex" or "edge"
    ids: tuple
    values: np.ndarray
    ranking: tuple
    f_label: str
    relevance_source: str
    weighted: bool

    def as_dict(self) -> dict:
        return dict(zip(self.ids, np.asarray(self.values, dtype=np.float64).tolist()))

    def value_of(self, element) -> float:
        return self.as_dict()[element]


def _make_report(
    metric: Metric,
    kind: str,
    ids: tuple,
    values: np.ndarray,
    f: RelevanceFunction,
    relevance_source: str,
    weighted: bool,
) -> CentralityReport:
    values = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(values)):
        raise SigmaOverflowError(
            f"{metric.value} accumulation overflowed to a non-finite value; "
            "the instance is beyond float64 range"
        )
    order = np.argsort(-values, kind="stable")  # stable: ties keep index order
    values = values.copy()
    values.setflags(write=False)
    return CentralityReport(
        metric=metric,
        kind=kind,
        ids=ids,
        values=values,
        ranking=tuple(map(ids.__getitem__, order.tolist())),
        f_label=f.label,
        relevance_source=relevance_source,
        weighted=weighted,
    )


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
    return _make_report(
        Metric.DEGREE, "vertex", g.labels, vals, f, relevance_source, g.weighted
    )


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
    kw = dict(f=f, relevance_source=relevance_source, weighted=g.weighted)
    hrep = vrep = erep = None
    if harmonic:
        hrep = _make_report(Metric.HARMONIC, "vertex", g.labels, h, **kw)
    if betweenness:
        vrep = _make_report(Metric.VERTEX_BETWEENNESS, "vertex", g.labels, vb, **kw)
        ids = tuple(g.edge_labels())
        erep = _make_report(Metric.EDGE_BETWEENNESS, "edge", ids, eb, **kw)
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
