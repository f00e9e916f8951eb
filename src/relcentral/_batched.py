"""Block engine for harmonic closeness and betweenness, any positive weights.

Sources run in blocks (``sweep``), and a block's per-level arrays grow
with b times the neighbor slots of a level. ``block_size`` probes the
graph once: the engine's own BFS from one source, the vertex of highest
degree, whose widest level stands for every source's, gives b so that a
block's widest level spans about ``LEVEL_SLOTS`` slots (the batch sizing
of multi-source BFS; Then et al., PVLDB 8(4), 2014), at most ``BLOCK``
sources and at most what fits ``BUDGET`` bytes of DAG arcs. A level
spans at most 2m slots, so when one block of every source fits those
bounds at 2m slots a level, ``sweep`` takes it without the probe. The
block size never depends on the worker count and block credit is merged
in block order as it arrives, so any level of parallelism produces the
same bytes.

The b sources of a block see the graph as flat nodes s*V + x (vertex x
seen from source s), and one of two front-ends lays their shortest-path
DAGs out level by level: the reached nodes of each level and the DAG
arcs, every arc running from a lower to a higher level. Both list flat
nodes' neighbor slots through one expansion (``_expand``).

- Unit weights (``_bfs``): one BFS over the flat nodes; level k holds
  the nodes at distance k, and every arc joins consecutive levels. Each
  node is a frontier once, so a block costs O(b*(V+m)) at any depth. A
  step expands from whichever side has fewer neighbor slots, the
  frontier (top-down) or the unvisited nodes (bottom-up; Beamer,
  Asanovic and Patterson, SC 2012); on low-diameter graphs that builds
  and frees far fewer candidate arcs. A top-down step finds its new
  nodes by marking the kept heads and scanning the block when they
  number at least a quarter of its nodes, and by sorting them when they
  are fewer, so that thin levels of deep graphs skip the block-wide
  pass. An arc's CSR slot is int32, read once by the edge credit; the
  positions stay intp, which numpy's gathers and ``bincount`` take
  without a cast.
- Any weights (``_by_distance``): lockstep label-correcting distances
  over the flat nodes (``_distances``), the arcs p -> w where d[p] < d[w]
  and d[p] + weight ties d[w] within the relative ``TIE_TOL``, and a
  node's level the hop count of its longest DAG path, so an arc may
  skip levels. Kahn's order finds the levels: each lowers the in-degree
  of its arcs' heads and sorts only the heads it completes. Relaxations
  and the scan for candidate arcs run ``_CHUNK`` slots at a time.

Every recurrence over the DAGs (Brandes 2001; the path variants follow
Brandes 2008) is then one ``np.bincount`` per level. From the sources
down, over the arcs into each level, run the path counts, then one loop
that makes the path-variant forward state and the harmonic terms; from
the deepest level up, over the arcs out of each level, runs the backward
credit. Edge credit gathers per CSR slot level by level, so no arc-sized
array outlives its level. Beyond its DAG a block keeps a few arrays over
its positions: sigma, each position's vertex, the pairwise f values
(filled ``_PAIRS`` positions at a time) or the forward state, the
harmonic terms, and the backward aggregates; the flat ids are dropped
once each position's source and vertex are known. numpy only; no scipy.

A block builds one DAG, on the front-end its weights choose. Its path
counts are made only for betweenness or path f: pairwise harmonic
closeness reads none. Both front-ends count by one rule: sigma in
float64 with a power-of-two exponent per position, the count being
sigma * 2**ex. ``ex`` is made only once a count reaches 2**``SCALE``;
from then on an arc scales its tail's value to its head's exponent,
which a head raises by ``SCALE`` on reaching 2**``SCALE``. Counts then
never overflow, and a power-of-two scale is exact, so the scaled run
gives the bits of an unscaled one wherever that one's values stay normal
floats. The path-f forward state and the backward coefficients take the
same scale; only a path-f value beyond float64 (a mean path product of
4**2000, say) reaches the reports as inf, and they raise
``SigmaOverflowError``. On unit weights the BFS DAG has the distance
front-end's levels and positions, and each head's and each tail's arcs
in the same order, so counts and vertex credit equal those of the graph
with every weight 2.0 bit for bit, and harmonic values are twice its;
edge credit, summed per CSR slot, may add an edge's two slots in the
other order.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError, SigmaOverflowError
from .graph import Graph
from .relevance import RelevanceFunction, RelevanceVector, Variant, pair_values

BLOCK = 256  # the most sources in a block
LEVEL_SLOTS = 1 << 17  # neighbor slots in a block's widest level
BUDGET = 1 << 30  # bytes of DAG arcs for the blocks that run at once
# bytes per DAG arc: a source's DAG has at most m arcs, and the traced
# peak of a one-source block on WS n=100000, d=10 is at most 69.4 bytes
# per edge (weights U(0.5, 2); unit weights 61.1 to 65.9), product and
# path f. The distance front-end sets it: its scan of the source's 2m
# candidate slots, not its n - 1 arcs, reaches the peak
ARC_BYTES = 72
SCALE = 512  # a path count reaching 2**SCALE is divided by it (_path_counts)
# two path lengths tie when they differ by at most TIE_TOL * the larger
TIE_TOL = 1e-12
# slots per chunk of the distance front-end: its float64 and int64
# temporaries take about 64 KiB, below glibc's default mmap threshold
# (128 KiB), and a warm weighted-sparse sweep takes no page fault (about
# 560 at 1 << 16). A chunk of the candidate scan holds whole source rows,
# so it spans 2m slots when 2m is larger
_CHUNK = 1 << 13
# positions per chunk of pairwise f, whose temporaries then stay below
# the block's own arrays
_PAIRS = 1 << 14
# a top-down BFS step scans the block for its new nodes when its kept
# heads number at least 1/_SCAN of the block's nodes, and sorts them
# below that, so that a thin level never pays a pass over the block
_SCAN = 4


@dataclass
class _Dag:
    """Shortest-path DAGs of one source block, laid out by level.

    Level k holds positions ``cut[k]:cut[k + 1]``; position i is flat
    node ``node[i]`` at distance ``dist[i]`` (k on level k when ``dist``
    is None), and position i < b is block source i. ``into[k - 1]`` holds
    the arcs into level k as (base, tail, head): tail indexes positions
    from ``base`` on, head the positions of level k. ``out[k]`` holds the
    arcs out of level k as (tail, base, head, slot): tail indexes the
    positions of level k, head positions from ``base`` on, and slot is
    the edge's CSR slot (int32 from ``_bfs``: the memory guard keeps 2m
    far below 2**31).
    """

    node: np.ndarray
    cut: np.ndarray
    dist: np.ndarray | None
    into: list
    out: list


def _offsets(sizes) -> np.ndarray:
    out = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=out[1:])
    return out


def _ranges(counts: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The ranges starts[i] .. starts[i] + counts[i], concatenated."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    return np.arange(total) + np.repeat(starts - (ends - counts), counts)


def _firsts(a: np.ndarray) -> np.ndarray:
    """Where an ascending array starts a run of equal values."""
    first = np.ones(len(a), dtype=bool)
    np.not_equal(a[1:], a[:-1], out=first[1:])
    return first


def _expand(g: Graph, nodes: np.ndarray, x: np.ndarray):
    """The neighbor slots of the flat ``nodes`` (vertices ``x``): each
    node's slot count, then, in node order, each slot's CSR slot and the
    flat node it leads to."""
    indptr, nbr, _ = g.neighbor_csr
    cnt = indptr[x + 1] - indptr[x]
    slot = _ranges(cnt, indptr[x])
    to = np.repeat(nodes - x, cnt)
    to += nbr[slot]
    return cnt, slot, to


# --- unit weights: BFS levels ---


def _bfs(g: Graph, S: np.ndarray) -> _Dag:
    """BFS from every source of the block over its flat nodes.

    Each level lists its flat nodes in ascending order. Which side a step
    expands from depends only on the block, so the arcs, and the
    summation order over them, are the same on every run.
    """
    indptr, nbr, _ = g.neighbor_csr
    n, b = g.vertex_count, len(S)
    deg = np.diff(indptr)
    level = np.full(b * n, -1, dtype=np.int32)
    pos = np.empty(b * n, dtype=np.int64)  # a node's position in its level
    nodes, x = n * np.arange(b) + S, S
    level[nodes] = 0
    pos[nodes] = np.arange(b)
    unvisited_slots = b * len(nbr) - int(deg[S].sum())
    unvisited = None  # flat ids of degree > 0, listed on the first bottom-up step
    levels, into, out = [nodes], [], []
    start = 0  # the first position of the deepest level so far
    while True:
        depth = len(out)
        if deg[x].sum() <= unvisited_slots:
            step = _top_down(g, level, pos, nodes, x, depth)
        else:
            unvisited = (np.flatnonzero((level < 0) & np.tile(deg > 0, b))
                         if unvisited is None else unvisited[level[unvisited] < 0])
            step = _bottom_up(g, level, pos, unvisited, depth)
        if not len(step[0]):
            break
        nodes, tp, hp, slot = step
        level[nodes] = depth + 1
        x = nodes % n
        unvisited_slots -= int(deg[x].sum())
        into.append((start, tp, hp))
        start += len(levels[-1])
        out.append((tp, start, hp, slot))
        levels.append(nodes)
    return _Dag(np.concatenate(levels), _offsets(list(map(len, levels))), None, into, out)


def _top_down(g: Graph, level, pos, nodes, x, depth: int):
    """One step from the frontier ``nodes`` (vertices ``x``) at ``depth``:
    the next level and its arcs, read off the frontier's neighbor slots.
    The new nodes are the kept heads, ascending and each once, found by
    a scan of the block or a sort (``_SCAN``)."""
    cnt, slot, head = _expand(g, nodes, x)
    keep = np.flatnonzero(level[head] < 0)
    tp = np.repeat(np.arange(len(cnt)), cnt)[keep]
    head, slot = head[keep], slot[keep].astype(np.int32)
    if _SCAN * len(head) >= len(level):
        level[head] = depth + 1
        new = np.flatnonzero(level == depth + 1)
    else:
        new = np.sort(head)
        new = new[_firsts(new)]
    pos[new] = np.arange(len(new))
    return new, tp, pos[head], slot


def _bottom_up(g: Graph, level, pos, unvisited, depth: int):
    """One step in which every unvisited node looks for parents at
    ``depth``: the next level and its arcs, read off the unvisited
    nodes' neighbor slots."""
    cnt, slot, tail = _expand(g, unvisited, unvisited % g.vertex_count)
    keep = np.flatnonzero(level[tail] == depth)
    hi = np.repeat(np.arange(len(cnt)), cnt)[keep]
    tail, slot = tail[keep], slot[keep].astype(np.int32)
    first = _firsts(hi)  # hi ascends: the first arc into each head
    new = unvisited[hi[first]]
    pos[new] = np.arange(len(new))
    return new, pos[tail], np.cumsum(first) - 1, slot


# --- any positive weights: distances, then longest-hop levels ---


def _distances(g: Graph, S: np.ndarray) -> np.ndarray:
    """Distances from every source of the block, flat over s*V + x.

    Label-correcting in lockstep over the block, nearest nodes first, as
    in Dial's buckets and in Meyer and Sanders' delta-stepping: each
    round relaxes the pending nodes (improved since they were last
    relaxed) within the least edge weight of the nearest one, which no
    later round can improve, or the nearest quarter of them when that is
    more, so that deep graphs neither relax a node many times nor take
    many small rounds. Relaxations run about ``_CHUNK`` slots at a time:
    a chunk's heads and candidate lengths repeat its nodes and the
    distances the round read, and a head keeps the least of its
    candidates (``np.minimum.at``) before the next chunk reads it. A
    node that an earlier chunk of the round improved is relaxed from the
    distance the round read, and again, being pending, in the next
    round. The result is the least float sum over the paths
    to a node, as Dijkstra's is, in any order.
    """
    _, nbr, eid = g.neighbor_csr
    w = g.edge_weights[eid]
    n, b = g.vertex_count, len(S)
    lightest = float(w.min(initial=np.inf))
    step = max(1, _CHUNK * n // max(1, len(nbr)))  # nodes per chunk
    dist = np.full(b * n, np.inf)
    last = np.empty(b * n, dtype=np.int64)  # a node's last place in a list
    pending = n * np.arange(b) + S
    dist[pending] = 0.0
    while len(pending):
        d = dist[pending]
        q = len(d) // 4
        now = d <= max(d.min() + lightest, np.partition(d, q)[q])
        active, improved, d = pending[now], [pending[~now]], d[now]
        for i in range(0, len(active), step):
            nodes = active[i:i + step]
            cnt, slot, head = _expand(g, nodes, nodes % n)
            via = np.repeat(d[i:i + step], cnt)
            with np.errstate(over="ignore"):  # an overflowed length is never kept
                via += w[slot]
            keep = np.flatnonzero(via < dist[head])
            np.minimum.at(dist, head[keep], via[keep])
            improved.append(head[keep])
        pending = np.concatenate(improved)  # each pending node once
        idx = np.arange(len(pending))
        last[pending] = idx
        pending = pending[last[pending] == idx]
    return dist


def _by_distance(g: Graph, S: np.ndarray) -> _Dag:
    """The block's DAGs from its distances, at longest-hop levels: a node
    joins level k + 1 once the arcs out of levels 0..k have reached it
    by all its DAG arcs (Kahn's order, a level at a time: the arcs out of
    a level lower their heads' in-degrees, and only the heads they
    complete are sorted), and each level lists its flat nodes in
    ascending order. The candidate arcs are the slots whose gap d[p] +
    weight - d[w] is within a bound, scanned ``_CHUNK`` slots of whole
    source rows at a time.

    Raises ``SigmaOverflowError`` when float64 cannot hold the path
    lengths: when the farthest distance plus the heaviest weight passes
    its range (a node whose every path overflows is left unreached, and
    below it no distance plus weight formed here overflows), or when a
    reached node joins no level, as when a distance plus an arc's weight
    rounds back to the same distance and the arc is not kept."""
    indptr, nbr, eid = g.neighbor_csr
    n, b = g.vertex_count, len(S)
    deg, w = np.diff(indptr), g.edge_weights[eid]
    dist = _distances(g, S)
    reached = np.isfinite(dist)
    top = float(np.max(dist, where=reached, initial=0.0)) + float(w.max(initial=0.0))
    if math.isinf(top):  # no distance plus weight formed below exceeds top
        raise SigmaOverflowError("a path length plus an edge weight passes the float64 range")
    # candidate slots first, a chunk of sources at a time: d[p] + weight -
    # d[w] within a bound above every tolerance the rule can allow
    bound = TIE_TOL * top
    D, rows, found = dist.reshape(b, n), max(1, _CHUNK // max(1, len(nbr))), []
    for i in range(0, b, rows):
        gap = np.repeat(D[i:i + rows], deg, axis=1)
        gap += w
        with np.errstate(invalid="ignore"):  # inf - inf: unreached slots
            gap -= D[i:i + rows, nbr]
            found.append(np.flatnonzero(gap <= bound) + i * len(nbr))
    s, slot = np.divmod(np.concatenate(found), len(nbr))  # ascending by flat tail
    tail, head = n * s + np.repeat(np.arange(n), deg)[slot], n * s + nbr[slot]
    dp, dw = dist[tail], dist[head]
    via = dp + w[slot]
    arc = (dp < dw) & (np.abs(via - dw) <= TIE_TOL * np.maximum(via, dw))
    tail, head, slot = tail[arc], head[arc], slot[arc]

    first = _offsets(np.bincount(tail, minlength=b * n))  # a node's first arc out
    indeg = np.bincount(head, minlength=b * n)
    levels, groups = [n * np.arange(b) + S], []
    while True:
        nodes = levels[-1]
        arcs = _ranges(first[nodes + 1] - first[nodes], first[nodes])
        if not len(arcs):
            break
        groups.append(arcs)
        h = head[arcs]
        np.subtract.at(indeg, h, 1)
        h = np.sort(h[indeg[h] == 0])  # a head of several arcs once
        levels.append(h[_firsts(h)])
    node, sizes = np.concatenate(levels), list(map(len, levels))
    if len(node) < np.count_nonzero(reached):
        raise SigmaOverflowError(
            "a path length plus an edge weight rounds back to the path length in float64"
        )
    cut = _offsets(sizes)
    pos = np.empty(b * n, dtype=np.int64)
    pos[node] = np.arange(len(node))
    tail, head = pos[tail], pos[head]
    out = [(tail[a] - cut[k], 0, head[a], slot[a]) for k, a in enumerate(groups)]
    # int16 while it fits, which numpy's stable sort orders by radix
    dtype = np.int16 if len(levels) < 1 << 15 else np.intp
    level = np.repeat(np.arange(len(levels), dtype=dtype), sizes)[head]
    by_head = np.split(np.argsort(level, kind="stable"), _offsets(np.bincount(level))[1:-1])
    into = [(0, tail[a], head[a] - cut[k]) for k, a in enumerate(by_head) if k]
    return _Dag(node, cut, dist[node], into, out)


# --- recurrences over the levels ---


def _path_counts(dag: _Dag):
    """sigma per position in float64, and ``ex``: None while every count
    stays below 2**SCALE, else each position's exponent, the count being
    sigma * 2**ex. A head's exponent is the largest of its tails'."""
    cut, sigma, ex = dag.cut, np.empty(dag.cut[-1]), None
    sigma[:cut[1]] = 1.0
    for k, (base, t, h) in enumerate(dag.into, 1):
        lo, hi = cut[k], cut[k + 1]
        terms = sigma[base:][t]
        if ex is not None:  # exponents never fall below 0, where ex starts
            tail_ex = ex[base:][t]
            np.maximum.at(ex[lo:hi], h, tail_ex)
            terms = np.ldexp(terms, tail_ex - ex[lo:hi][h])
        level = np.bincount(h, terms, hi - lo)
        if level.max(initial=0.0) >= 2.0**SCALE:
            if ex is None:
                ex = np.zeros(cut[-1], dtype=np.int64)
            big = level >= 2.0**SCALE
            level[big] = np.ldexp(level[big], -SCALE)
            ex[lo:hi][big] += SCALE
        sigma[lo:hi] = level
    return sigma, ex


def block(g, R, f, S: np.ndarray, harmonic: bool, betweenness: bool):
    """Harmonic values of the sources S and their betweenness credit: the
    DAG, its path counts (only for betweenness or path f, the recurrences
    that read them), one forward loop and one backward loop."""
    n, b, variant, r = g.vertex_count, len(S), f.variant, R.values
    dag = _by_distance(g, S) if g.weighted else _bfs(g, S)
    sigma = ex = None
    if betweenness or variant.is_path:
        sigma, ex = _path_counts(dag)
    cut = dag.cut
    src = dag.node // n  # each position's block source and vertex
    vert = dag.node - src * n
    dag.node = None  # the flat ids are not read again
    fv = fwd = None
    if variant.is_pairwise:
        fv = np.empty(len(vert))
        for i in range(0, len(vert), _PAIRS):
            fv[i:i + _PAIRS] = pair_values(f, S[src[i:i + _PAIRS]], vert[i:i + _PAIRS], R)
    else:
        fwd = r[vert]  # R per position, made the path-f state level by level
    terms = np.empty(len(vert) - b) if harmonic else None
    # forward, a level at a time: the path-f state (per node, over its
    # shortest paths, the sum of their R products or R totals, scaled as
    # sigma; an inf reaches the reports, which raise SigmaOverflowError),
    # then the harmonic terms w / d
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (base, t, h) in enumerate(dag.into, 1):
            lo, hi = cut[k], cut[k + 1]
            if fwd is not None:
                into = fwd[base:][t]
                if ex is not None:  # each tail's state at its head's scale
                    into = np.ldexp(into, ex[base:][t] - ex[lo:hi][h])
                into = np.bincount(h, into, hi - lo)
                if variant is Variant.PATH_SUM:
                    fwd[lo:hi] *= sigma[lo:hi]
                    fwd[lo:hi] += into
                else:
                    fwd[lo:hi] *= into
            if harmonic:
                tk = terms[lo - b:hi - b]
                d = float(k) if dag.dist is None else dag.dist[lo:hi]
                w = fv[lo:hi] if fwd is None else np.divide(fwd[lo:hi], sigma[lo:hi], out=tk)
                np.divide(w, d, out=tk)
    hv = np.bincount(src[b:], terms, b) if harmonic else None
    del src
    if not betweenness:
        return hv, None, None

    # backward from the deepest level: credit per arc, and per node the
    # suffix aggregates (below) and the coefficients its in-arcs read,
    # each scaled as sigma is by ex
    below = [np.empty(len(vert)) for _ in range(1 + (variant is Variant.PATH_SUM))]
    for x in below:  # the deepest level has no arcs out; the loop fills the rest
        x[cut[-2]:] = 0.0
    if fwd is None:
        coef = [fv]  # (f + delta) / sigma; f is not read again
    else:  # PATH_PROD: r * (1/sigma + below); PATH_SUM: the path-count mass
        coef = [np.empty(len(vert)) for _ in below]  # and the sum-of-R mass

    def settle(lo, hi):
        """The coefficients of the nodes lo:hi, once their below is complete."""
        if fwd is None:
            c = coef[0][lo:hi]
            c += below[0][lo:hi]
            c /= sigma[lo:hi]
            return
        inv, rv = 1.0 / sigma[lo:hi], r[vert[lo:hi]]
        if variant is Variant.PATH_PROD:
            coef[0][lo:hi] = rv * (inv + below[0][lo:hi])
        else:
            coef[0][lo:hi] = kc = inv + below[0][lo:hi]
            coef[1][lo:hi] = rv * kc + below[1][lo:hi]

    settle(cut[-2], cut[-1])
    edge = g.neighbor_csr[2]
    credit = np.zeros(len(edge))  # per CSR slot; each edge has two
    # an overflow of the forward state to inf reaches the reports
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(len(dag.out) - 1, -1, -1):
            t, base, h, slot = dag.out[k]
            lo, hi = cut[k], cut[k + 1]
            at_head = [c[base:][h] for c in coef]
            if ex is not None:  # each head's coefficients at its tail's scale
                shift = ex[lo:hi][t] - ex[base:][h]
                at_head = [np.ldexp(c, shift) for c in at_head]
            arc_credit = (sigma if fwd is None else fwd)[lo:hi][t]  # sigma or fwd at the tail
            arc_credit *= at_head[0]
            if variant is Variant.PATH_SUM:
                arc_credit += sigma[lo:hi][t] * at_head[1]
            np.add.at(credit, slot, arc_credit)
            if not k:  # the sources earn no vertex credit
                break
            for x, y in zip(below, [arc_credit] if fwd is None else at_head):
                x[lo:hi] = np.bincount(t, y, hi - lo)
            settle(lo, hi)
        node_credit = below[0][b:]
        if fwd is not None:
            node_credit *= fwd[b:]
        if variant is Variant.PATH_SUM:
            node_credit += sigma[b:] * below[1][b:]
    return hv, np.bincount(vert[b:], node_credit, n), np.bincount(edge, credit, g.edge_count)


# --- source blocks, and the ordered map that runs them ---


def _fit(g) -> int:
    """How many sources' DAG arcs fit the byte budget."""
    return BUDGET // (ARC_BYTES * max(1, g.edge_count))


def block_size(g) -> int:
    """Sources per block, a function of the graph alone: ``LEVEL_SLOTS``
    over the neighbor slots of the widest level of one BFS from the
    vertex of highest degree (the lowest such index on ties), clamped to
    1..``BLOCK`` and to what fits ``BUDGET``. Raises
    ``ResourceLimitError`` when not even one source fits."""
    fit = _fit(g)
    if fit < 1:
        raise ResourceLimitError(
            f"one source's shortest-path DAG over {g.edge_count} edges needs about "
            f"{ARC_BYTES * g.edge_count} bytes, more than the {BUDGET}-byte budget"
        )
    peak = 0
    if g.vertex_count:
        deg = np.diff(g.neighbor_csr[0])
        dag = _bfs(g, np.array([np.argmax(deg)]))
        # one source: its flat nodes are the vertices, each level nonempty
        peak = int(np.add.reduceat(deg[dag.node], dag.cut[:-1]).max())
    return max(1, min(LEVEL_SLOTS // max(1, peak), BLOCK, fit))


def _ordered(run, starts: Sequence, workers: int):
    """``run`` over ``starts``, yielded in order, with at most ``workers``
    items running and twice that many begun and not yet yielded."""
    if workers <= 1:
        yield from map(run, starts)
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        ahead = deque(pool.submit(run, i) for i in starts[:2 * workers])
        try:
            for i in starts[2 * workers:]:
                part = ahead.popleft().result()
                ahead.append(pool.submit(run, i))
                yield part
            while ahead:
                yield ahead.popleft().result()
        finally:  # a failed block: start no more
            for fut in ahead:
                fut.cancel()


def sweep(g, R, f, workers: int, harmonic: bool, betweenness: bool):
    """Run ``block`` over the source blocks and merge its parts.

    ``block`` returns, for the sources of a block, their harmonic values
    and the block's vertex and edge betweenness credit, with None for the
    parts not asked for. Returns ``(harmonic, vertex, edge)`` arrays,
    None where not asked for.
    """
    n = g.vertex_count
    # a level spans at most 2m slots, so when one block may hold every
    # source the probe could not give fewer: it is skipped
    if n <= min(BLOCK, _fit(g), LEVEL_SLOTS // max(1, 2 * g.edge_count)):
        b = max(1, n)
    else:
        b = block_size(g)
    starts = range(0, n, b)
    # as many blocks at once as the budget holds; never a smaller block
    workers = min(workers, len(starts), _fit(g) // b)

    def run(i):
        return block(g, R, f, np.arange(i, min(i + b, n)), harmonic, betweenness)

    h = np.zeros(n) if harmonic else None
    vb = np.zeros(n) if betweenness else None
    eb = np.zeros(g.edge_count) if betweenness else None
    # the parts first, so that the pool has shut down when the loop ends
    for (ph, pv, pe), i in zip(_ordered(run, starts, workers), starts):
        if harmonic:
            h[i:i + b] = ph
        if betweenness:
            vb += pv
            eb += pe
    return h, vb, eb


def batched_betweenness(g: Graph, R: RelevanceVector, f: RelevanceFunction, workers: int = 1):
    _, vb, eb = sweep(g, R, f, workers, harmonic=False, betweenness=True)
    return vb, eb


def batched_harmonic(g: Graph, R: RelevanceVector, f: RelevanceFunction, workers: int = 1):
    return sweep(g, R, f, workers, harmonic=True, betweenness=False)[0]
