"""Single-source shortest paths with multiplicity.

Produces, per source, the distance vector, the number of distinct
shortest paths sigma (exact integers, never floats), the predecessor
DAG, and a deterministic settle order. BFS handles the unweighted
case; Dijkstra handles positive weights, with a relative tolerance
(``TIE_TOL``) deciding when two candidate distances count as tied.

This is the per-source reference form for inspecting one DAG or
enumerating its paths. The metrics do not call it: the block engine
``_batched`` runs whole blocks of sources at once, on BFS levels for
unit weights (ties are exact) and on distances with the same
``TIE_TOL`` rule for any others.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import PathExplosionError, UnknownVertexError, UnreachableVertexError
from .graph import Graph

__all__ = [
    "ShortestPathDAG",
    "sssp",
    "enumerate_shortest_paths",
    "distance",
    "distances_tied",
    "TIE_TOL",
]

TIE_TOL = 1e-12


def distances_tied(d1: float, d2: float) -> bool:
    """True when two path lengths are equal up to relative tolerance."""
    return abs(d1 - d2) <= TIE_TOL * max(1.0, d1, d2)


@dataclass(frozen=True)
class ShortestPathDAG:
    source: int
    dist: np.ndarray  # float64, np.inf where unreachable
    sigma: tuple[int, ...]  # exact shortest-path counts
    preds: tuple[tuple[int, ...], ...]  # per vertex, ascending internal index
    pred_edges: tuple[tuple[int, ...], ...]  # edge ids parallel to preds
    settle_order: tuple[int, ...]  # reachable vertices, non-decreasing dist


def _as_index(g: Graph, v) -> int:
    if isinstance(v, str):
        return g.index_of(v)
    i = int(v)
    if not 0 <= i < g.vertex_count:
        raise UnknownVertexError(f"vertex index {i} out of range 0..{g.vertex_count - 1}")
    return i


def _bfs_dist(g: Graph, s: int) -> np.ndarray:
    dist = np.full(g.vertex_count, np.inf)
    dist[s] = 0.0
    queue = deque([s])
    while queue:
        v = queue.popleft()
        dv = dist[v] + 1.0
        for w, _, _ in g.adjacency[v]:
            if dist[w] == np.inf:
                dist[w] = dv
                queue.append(w)
    return dist


def _dijkstra_dist(g: Graph, s: int) -> np.ndarray:
    dist = np.full(g.vertex_count, np.inf)
    dist[s] = 0.0
    done = [False] * g.vertex_count
    heap = [(0.0, s)]
    while heap:
        d, v = heapq.heappop(heap)
        if done[v]:
            continue
        done[v] = True
        for w, _, wt in g.adjacency[v]:
            nd = d + wt
            if nd < dist[w]:
                dist[w] = nd
                heapq.heappush(heap, (nd, w))
    return dist


def sssp(g: Graph, source) -> ShortestPathDAG:
    """Shortest-path DAG from one source (label or internal index).

    The DAG is rebuilt from final distances: p precedes w iff the edge
    p-w closes a shortest path within tolerance and p is strictly
    closer to the source. This keeps the sigma recurrence
    sigma[w] = sum of sigma over preds exact by construction, also in
    the weighted case where ties are approximate.
    """
    s = _as_index(g, source)
    dist = _dijkstra_dist(g, s) if g.weighted else _bfs_dist(g, s)

    reachable = np.flatnonzero(np.isfinite(dist))
    order = sorted(reachable.tolist(), key=lambda v: (dist[v], v))

    n = g.vertex_count
    preds: list[tuple[int, ...]] = [()] * n
    pred_edges: list[tuple[int, ...]] = [()] * n
    sigma = [0] * n
    sigma[s] = 1
    for w in order:
        if w == s:
            continue
        dw = dist[w]
        ps, es = [], []
        for p, ei, wt in g.adjacency[w]:
            dp = dist[p]
            if dp < dw and distances_tied(dp + wt, dw):
                ps.append(p)
                es.append(ei)
        preds[w] = tuple(ps)  # adjacency is index-sorted, so ps is too
        pred_edges[w] = tuple(es)
        sigma[w] = sum(sigma[p] for p in ps)

    return ShortestPathDAG(
        source=s,
        dist=dist,
        sigma=tuple(sigma),
        preds=tuple(preds),
        pred_edges=tuple(pred_edges),
        settle_order=tuple(order),
    )


def enumerate_shortest_paths(
    dag: ShortestPathDAG, t, cap: int = 10**6
) -> list[tuple[int, ...]]:
    """All sigma[t] shortest paths source..t, lexicographic by index."""
    ti = int(t)
    if not 0 <= ti < len(dag.dist):
        raise UnknownVertexError(f"vertex index {ti} out of range")
    if not np.isfinite(dag.dist[ti]):
        raise UnreachableVertexError(
            f"vertex {ti} is unreachable from source {dag.source}"
        )
    count = dag.sigma[ti]
    if count > cap:
        raise PathExplosionError(
            f"{count} shortest paths from {dag.source} to {ti} exceed cap {cap}"
        )
    out: list[tuple[int, ...]] = []
    stack: list[tuple[int, ...]] = [(ti,)]
    while stack:
        suffix = stack.pop()
        head = suffix[0]
        if head == dag.source:
            out.append(suffix)
            continue
        for p in dag.preds[head]:
            stack.append((p,) + suffix)
    out.sort()
    return out


def distance(g: Graph, s, t) -> float:
    """Shortest distance between two vertices; inf when disconnected."""
    si = _as_index(g, s)
    ti = _as_index(g, t)
    if si == ti:
        return 0.0
    return float(sssp(g, si).dist[ti])
