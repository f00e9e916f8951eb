"""Level-synchronous BFS engine for unweighted graphs.

Sources run in the fixed blocks of ``_sweep``. One BFS runs over the
block's flat nodes s*V + x (vertex x seen from block source s) and
records, level by level, the node list and the shortest-path DAG arcs
into the next level: tail position, head position and edge. Every node
is a frontier once, so top-down steps alone cost O(b*(V+m)) for a block
of b sources, plus a few numpy calls per level, at any graph depth.
Each step expands from whichever side has fewer neighbor slots, the
frontier (top-down) or the unvisited nodes of positive degree
(bottom-up), after Beamer, Asanovic and Patterson (SC 2012). A
bottom-up step costs less than the frontier it replaces, so the bound
holds; on low-diameter graphs, whose middle levels hold most nodes, it
builds and frees far fewer candidate arcs than a top-down step would.
Neighbor lists come from ``Graph.neighbor_csr``; no scipy.

Every recurrence over the DAGs (Brandes 2001; the path variants follow
Brandes 2008) is then one ``np.bincount`` per level: the path counts
sigma and the path-variant forward state from the sources down, the
backward credit from the deepest level up, and harmonic closeness.
Vertex and edge credit are one ``bincount`` each over all levels. Path
counts live in float64; a block whose counts overflow to inf is
handed to the weighted engine, which recounts them exactly, instead of
silently degrading.
"""

from __future__ import annotations

import numpy as np

from ._sweep import sweep
from .errors import SigmaOverflowError
from .graph import Graph
from .relevance import RelevanceFunction, RelevanceVector, Variant, pair_values


def _ragged(counts: np.ndarray, starts: np.ndarray):
    """(owner, slot) over the ranges starts[i] .. starts[i] + counts[i]."""
    owner = np.repeat(np.arange(len(counts)), counts)
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    return owner, np.arange(total) + np.repeat(starts - (ends - counts), counts)


def _firsts(a: np.ndarray) -> np.ndarray:
    """Where an ascending array starts a run of equal values."""
    first = np.ones(len(a), dtype=bool)
    np.not_equal(a[1:], a[:-1], out=first[1:])
    return first


def _bfs(g: Graph, S: np.ndarray):
    """BFS from every source of the block over its flat nodes.

    Returns (levels, arcs): ``levels[k]`` holds the flat nodes at
    distance k in ascending order, and ``arcs[k]`` the DAG arcs from
    level k into level k + 1 as (tail position in level k, head
    position in level k + 1, CSR slot of the edge). Which side a step
    expands from depends only on the block, so the arcs, and the
    summation order over them, are the same on every run.
    """
    indptr, nbr, _ = g.neighbor_csr
    n = g.vertex_count
    deg = np.diff(indptr)
    b = len(S)
    level = np.full(b * n, -1, dtype=np.int32)
    pos = np.empty(b * n, dtype=np.int64)  # a node's position in its level
    nodes, x = n * np.arange(b) + S, S
    level[nodes] = 0
    pos[nodes] = np.arange(b)
    unvisited_slots = b * len(nbr) - int(deg[S].sum())
    unvisited = None  # flat ids of degree > 0, listed on the first bottom-up step
    levels, arcs = [nodes], []
    while True:
        depth = len(arcs)
        if deg[x].sum() <= unvisited_slots:
            step = _top_down(g, level, pos, nodes, x)
        else:
            unvisited = (np.flatnonzero((level < 0) & np.tile(deg > 0, b))
                         if unvisited is None else unvisited[level[unvisited] < 0])
            step = _bottom_up(g, level, pos, unvisited, depth)
        nodes = step[0]
        if not len(nodes):
            return levels, arcs
        level[nodes] = depth + 1
        x = nodes % n
        unvisited_slots -= int(deg[x].sum())
        levels.append(nodes)
        arcs.append(step[1:])


def _top_down(g: Graph, level, pos, nodes, x):
    """One step from the frontier ``nodes`` (vertices ``x``): the next
    level and its arcs, read off the frontier's neighbor slots."""
    indptr, nbr, _ = g.neighbor_csr
    tp, slot = _ragged(indptr[x + 1] - indptr[x], indptr[x])
    head = (nodes - x)[tp] + nbr[slot]
    keep = np.flatnonzero(level[head] < 0)
    tp, head, slot = tp[keep], head[keep], slot[keep]
    new = np.sort(head)
    new = new[_firsts(new)]
    pos[new] = np.arange(len(new))
    return new, tp, pos[head], slot


def _bottom_up(g: Graph, level, pos, unvisited, depth: int):
    """One step in which every unvisited node looks for parents at
    ``depth``: the next level and its arcs, read off the unvisited
    nodes' neighbor slots."""
    indptr, nbr, _ = g.neighbor_csr
    y = unvisited % g.vertex_count
    hi, slot = _ragged(indptr[y + 1] - indptr[y], indptr[y])
    tail = (unvisited - y)[hi] + nbr[slot]
    keep = np.flatnonzero(level[tail] == depth)
    hi, tail, slot = hi[keep], tail[keep], slot[keep]
    first = _firsts(hi)  # hi ascends: the first arc into each head
    new = unvisited[hi[first]]
    pos[new] = np.arange(len(new))
    return new, pos[tail], np.cumsum(first) - 1, slot


def _forward(r: np.ndarray, variant: Variant, S: np.ndarray, verts, arcs):
    """Path counts and the path-variant forward state (total path weight
    per node, None for pairwise f), one array per level."""
    sigma = [np.ones(len(S))]
    fwd = [r[S]] if variant.is_path else None
    # sigma may run past float64 range; the isinf check turns that into
    # a typed error, so the intermediate noise is muted
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (tp, hp, _) in enumerate(arcs):
            size = len(verts[k + 1])
            sigma.append(np.bincount(hp, sigma[k][tp], size))
            if np.isinf(sigma[-1]).any():
                raise SigmaOverflowError(
                    "shortest-path counts exceed float64 range in the batched engine"
                )
            if variant is Variant.PATH_PROD:
                fwd.append(r[verts[k + 1]] * np.bincount(hp, fwd[k][tp], size))
            elif variant is Variant.PATH_SUM:
                fwd.append(np.bincount(hp, fwd[k][tp], size) + sigma[-1] * r[verts[k + 1]])
    return sigma, fwd


def block(g, R, f, S: np.ndarray, harmonic: bool, betweenness: bool):
    """Harmonic values of the sources S and their betweenness credit.

    A block whose path counts overflow float64 runs in the weighted
    engine, whose exact integer counts answer pairwise f; path f still
    raises ``SigmaOverflowError`` there. The counts are checked even
    when nothing asked uses them (pairwise harmonic alone), so such a
    block's harmonic comes from the weighted engine too, the same with
    or without betweenness.
    """
    n, b = g.vertex_count, len(S)
    r, variant = R.values, f.variant
    levels, arcs = _bfs(g, S)
    owners, verts = zip(*(np.divmod(nodes, n) for nodes in levels))
    try:
        sigma, fwd = _forward(r, variant, S, verts, arcs)
    except SigmaOverflowError:
        from . import _weighted  # scipy.sparse.linalg and csgraph: only when needed

        return _weighted.block(g, R, f, S, harmonic, betweenness)
    fv = None
    if variant.is_pairwise:
        fv = [pair_values(f, S[s], x, R) for s, x in zip(owners, verts)]

    hv = None
    if harmonic:
        hv = np.zeros(b)
        for k in range(1, len(levels)):
            w = fv[k] if fwd is None else fwd[k] / sigma[k]
            hv += np.bincount(owners[k], w / k, b)
    if not betweenness:
        return hv, None, None
    if not arcs:  # no source reaches another vertex
        return hv, np.zeros(n), np.zeros(g.edge_count)

    # backward from the deepest level: credit per arc and per node
    arc_credit, node_credit = [None] * len(arcs), [None] * len(arcs)
    below = [np.zeros(len(levels[-1]))] * (2 if variant is Variant.PATH_SUM else 1)
    for k in range(len(arcs) - 1, -1, -1):
        tp, hp, _ = arcs[k]
        size, inv = len(levels[k]), 1.0 / sigma[k + 1]
        if fwd is None:
            coef = (fv[k + 1] + below[0]) * inv
            arc_credit[k] = sigma[k][tp] * coef[hp]
            below = [np.bincount(tp, arc_credit[k], size)]
            node_credit[k] = below[0]
        elif variant is Variant.PATH_PROD:
            K = r[verts[k + 1]] * (inv + below[0])
            arc_credit[k] = fwd[k][tp] * K[hp]
            below = [np.bincount(tp, K[hp], size)]
            node_credit[k] = fwd[k] * below[0]
        else:  # PATH_SUM: suffix path-count mass and suffix sum-of-R mass
            kc = inv + below[0]
            ks = r[verts[k + 1]] * kc + below[1]
            arc_credit[k] = fwd[k][tp] * kc[hp] + sigma[k][tp] * ks[hp]
            below = [np.bincount(tp, kc[hp], size), np.bincount(tp, ks[hp], size)]
            node_credit[k] = fwd[k] * below[0] + sigma[k] * below[1]
    # the sources earn no vertex credit; the deepest level has no arcs out
    node_credit[0] = np.zeros(b)
    vb = np.bincount(np.concatenate(verts[:-1]), np.concatenate(node_credit), n)
    edge = g.neighbor_csr[2][np.concatenate([slot for *_, slot in arcs])]
    return hv, vb, np.bincount(edge, np.concatenate(arc_credit), g.edge_count)


def batched_betweenness(g: Graph, R: RelevanceVector, f: RelevanceFunction, workers: int = 1):
    _, vb, eb = sweep(block, g, R, f, workers, harmonic=False, betweenness=True)
    return vb, eb


def batched_harmonic(g: Graph, R: RelevanceVector, f: RelevanceFunction, workers: int = 1):
    return sweep(block, g, R, f, workers, harmonic=True, betweenness=False)[0]
