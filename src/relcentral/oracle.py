"""Brute-force reference implementations.

Everything here enumerates paths explicitly and computes metrics
straight from their definitions. Deliberately slow and bounded: the
point is to have an independent answer to compare the fast engines
against, at desk scale, and to back the CLI's --engine oracle. The
oracle walks its own neighbor lists, built from the graph's edge arrays,
and shares only the tie tolerance with the engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._batched import TIE_TOL
from .errors import PathVariantNotApplicableError, TooLargeError, UnknownVertexError
from .graph import Graph
from .relevance import RelevanceFunction, RelevanceVector, eval_pair, eval_path

__all__ = [
    "OracleLimits",
    "DEFAULT_LIMITS",
    "brute_shortest_paths",
    "all_pairs_shortest_paths",
    "brute_degree",
    "brute_harmonic",
    "brute_betweenness",
    "distances_tied",
]


@dataclass(frozen=True)
class OracleLimits:
    max_vertices: int = 12
    max_paths: int = 100_000


DEFAULT_LIMITS = OracleLimits()


def distances_tied(d1: float, d2: float) -> bool:
    """True when two path lengths are equal up to relative tolerance."""
    return abs(d1 - d2) <= TIE_TOL * max(d1, d2)


def _as_index(g: Graph, v) -> int:
    if isinstance(v, str):
        return g.index_of(v)
    i = int(v)
    if not 0 <= i < g.vertex_count:
        raise UnknownVertexError(f"vertex index {i} out of range 0..{g.vertex_count - 1}")
    return i


def _neighbors(g: Graph) -> list[list[tuple[int, float]]]:
    """Per vertex, (neighbor, edge weight) pairs ascending by neighbor."""
    out: list[list[tuple[int, float]]] = [[] for _ in range(g.vertex_count)]
    u, v = g.edge_endpoints
    for a, b, w in zip(u.tolist(), v.tolist(), g.edge_weights.tolist()):
        out[a].append((b, w))
        out[b].append((a, w))
    return [sorted(x) for x in out]


def _edge_ids(g: Graph) -> dict[tuple[int, int], int]:
    """Edge index per endpoint pair, in either order."""
    out = {}
    for k, (a, b) in enumerate(zip(*(x.tolist() for x in g.edge_endpoints))):
        out[a, b] = out[b, a] = k
    return out


def _check_size(g: Graph, limits: OracleLimits) -> None:
    if g.vertex_count > limits.max_vertices:
        raise TooLargeError(
            f"{g.vertex_count} vertices exceed the oracle limit of "
            f"{limits.max_vertices}; use the fast engine"
        )


def brute_shortest_paths(
    g: Graph, s, t, limits: OracleLimits = DEFAULT_LIMITS
) -> tuple[float, list[tuple[int, ...]]]:
    """Exhaustive DFS over simple paths, keeping the tied-minimal set."""
    _check_size(g, limits)
    si = _as_index(g, s)
    ti = _as_index(g, t)
    if si == ti:
        return 0.0, [(si,)]

    adj = _neighbors(g)
    best = np.inf
    found: list[tuple[float, tuple[int, ...]]] = []
    visited = [False] * g.vertex_count
    visited[si] = True
    path = [si]

    def dfs(v: int, wsum: float) -> None:
        nonlocal best
        for w, wt in adj[v]:
            if visited[w]:
                continue
            nw = wsum + wt
            if nw > best and not distances_tied(nw, best):
                continue  # cannot improve, weights are positive
            if w == ti:
                if nw < best:
                    if not distances_tied(nw, best):
                        found.clear()
                    best = nw
                if distances_tied(nw, best):
                    found.append((nw, tuple(path) + (w,)))
                    if len(found) > limits.max_paths:
                        raise TooLargeError(
                            f"more than {limits.max_paths} tied shortest paths "
                            f"between {si} and {ti}"
                        )
                continue
            visited[w] = True
            path.append(w)
            dfs(w, nw)
            path.pop()
            visited[w] = False

    dfs(si, 0.0)
    paths = sorted(p for wsum, p in found if distances_tied(wsum, best))
    if not paths:
        return np.inf, []
    return best, paths


def all_pairs_shortest_paths(
    g: Graph, limits: OracleLimits = DEFAULT_LIMITS
) -> dict[tuple[int, int], tuple[float, list[tuple[int, ...]]]]:
    """Both ordered directions per pair; reverse paths are reversed sequences.

    Computing this once and passing it to the brute metrics below keeps
    repeated oracle calls on one graph affordable.
    """
    _check_size(g, limits)
    out: dict[tuple[int, int], tuple[float, list[tuple[int, ...]]]] = {}
    for s in range(g.vertex_count):
        for t in range(s + 1, g.vertex_count):
            d, ps = brute_shortest_paths(g, s, t, limits)
            out[(s, t)] = (d, ps)
            out[(t, s)] = (d, sorted(tuple(reversed(p)) for p in ps))
    return out


def brute_degree(g: Graph, R: RelevanceVector, f: RelevanceFunction) -> np.ndarray:
    """Per-vertex f-weighted neighbor sum, straight from the definition."""
    if f.variant.is_path:  # refused even when no vertex has a neighbor
        raise PathVariantNotApplicableError(f"{f.label} needs a path; degree sees only neighbors")
    out = np.zeros(g.vertex_count)
    for s, adj in enumerate(_neighbors(g)):
        out[s] = sum(eval_pair(f, s, t, R) for t, _ in adj)
    return out


def brute_harmonic(
    g: Graph,
    R: RelevanceVector,
    f: RelevanceFunction,
    limits: OracleLimits = DEFAULT_LIMITS,
    pair_paths=None,
) -> np.ndarray:
    """Per-source sum over targets of mean path weight / distance."""
    _check_size(g, limits)
    if pair_paths is None:
        pair_paths = all_pairs_shortest_paths(g, limits)
    out = np.zeros(g.vertex_count)
    for (s, t), (d, ps) in pair_paths.items():
        if not ps:
            continue
        out[s] += sum(eval_path(f, p, R) for p in ps) / len(ps) / d
    return out


def brute_betweenness(
    g: Graph,
    R: RelevanceVector,
    f: RelevanceFunction,
    limits: OracleLimits = DEFAULT_LIMITS,
    pair_paths=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Vertex and edge betweenness by literal path crediting.

    Every shortest path P of an ordered pair contributes its weight
    divided by the pair's path count to each interior vertex of P and
    to every edge of P, endpoints' edges included.
    """
    _check_size(g, limits)
    if pair_paths is None:
        pair_paths = all_pairs_shortest_paths(g, limits)
    edge_id = _edge_ids(g)
    vb = np.zeros(g.vertex_count)
    eb = np.zeros(g.edge_count)
    for (s, t), (_, ps) in pair_paths.items():
        if not ps:
            continue
        share = 1.0 / len(ps)
        for p in ps:
            wgt = eval_path(f, p, R) * share
            for v in p[1:-1]:
                vb[v] += wgt
            for a, b in zip(p, p[1:]):
                eb[edge_id[a, b]] += wgt
    return vb, eb
