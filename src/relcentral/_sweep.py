"""Source blocks sized from the graph, and the ordered map that runs the
engine over them.

The engine computes harmonic closeness and vertex/edge betweenness one
block of sources at a time, and a block's per-level arrays grow with
b times the neighbor slots of a level. ``block_size`` probes the graph
once: one BFS from its vertex of highest degree, whose widest level
stands for every source's, gives b so that a block's widest level spans
about ``LEVEL_SLOTS`` slots (the batch sizing of multi-source BFS; Then
et al., PVLDB 8(4), 2014), at most ``BLOCK`` sources and at most what
fits ``BUDGET`` bytes of DAG arcs. The block size never depends on the
worker count and block credit is merged in block order as it arrives,
so any level of parallelism produces the same bytes.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence

import numpy as np

from .errors import ResourceLimitError

BLOCK = 256  # the most sources in a block
LEVEL_SLOTS = 1 << 17  # neighbor slots in a block's widest level
BUDGET = 1 << 30  # bytes of DAG arcs for the blocks that run at once
# bytes per DAG arc: a source's DAG has at most m arcs, and the traced
# peak of a one-source block on WS n=100000, d=10 was at most 71.4 bytes
# per edge (unit and positive weights, product and path f)
ARC_BYTES = 72


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


def _peak_slots(g) -> int:
    """Neighbor slots of the widest level of one BFS from the vertex of
    highest degree, the lowest such index on ties."""
    if not g.vertex_count:
        return 0
    indptr, nbr, _ = g.neighbor_csr
    deg = np.diff(indptr)
    x = np.array([np.argmax(deg)])
    seen = np.zeros(g.vertex_count, dtype=bool)
    seen[x] = True
    peak = 0
    while len(x):
        slots = deg[x]
        peak = max(peak, int(slots.sum()))
        y = nbr[_ranges(slots, indptr[x])]
        y = np.sort(y[~seen[y]])  # sort and run mask: np.unique may load numpy.ma
        x = y[_firsts(y)]
        seen[x] = True
    return peak


def _fit(g) -> int:
    """How many sources' DAG arcs fit the byte budget."""
    return BUDGET // (ARC_BYTES * max(1, g.edge_count))


def block_size(g) -> int:
    """Sources per block, a function of the graph alone: ``LEVEL_SLOTS``
    over the probe's widest level, clamped to 1..``BLOCK`` and to what
    fits ``BUDGET``. Raises ``ResourceLimitError`` when not even one
    source fits."""
    fit = _fit(g)
    if fit < 1:
        raise ResourceLimitError(
            f"one source's shortest-path DAG over {g.edge_count} edges needs about "
            f"{ARC_BYTES * g.edge_count} bytes, more than the {BUDGET}-byte budget"
        )
    return max(1, min(LEVEL_SLOTS // max(1, _peak_slots(g)), BLOCK, fit))


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


def sweep(kernel, g, R, f, workers: int, harmonic: bool, betweenness: bool):
    """Run ``kernel`` over the source blocks and merge its parts.

    ``kernel(g, R, f, S, harmonic, betweenness)`` returns, for the
    sources ``S``, their harmonic values and the block's vertex and edge
    betweenness credit, with None for the parts not asked for. Returns
    ``(harmonic, vertex, edge)`` arrays, None where not asked for.
    """
    n, b = g.vertex_count, block_size(g)
    starts = range(0, n, b)
    # as many blocks at once as the budget holds; never a smaller block
    workers = min(workers, len(starts), _fit(g) // b)

    def run(i):
        return kernel(g, R, f, np.arange(i, min(i + b, n)), harmonic, betweenness)

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
