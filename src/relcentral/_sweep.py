"""Fixed source blocks and the ordered map that runs an engine over them.

Both engines compute harmonic closeness and vertex/edge betweenness one
block of sources at a time. The block size never depends on the worker
count and partial results are merged in block order, so any level of
parallelism produces the same bytes.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

BLOCK = 256


def sweep(kernel, g, R, f, workers: int, harmonic: bool, betweenness: bool):
    """Run ``kernel`` over the source blocks and merge its parts.

    ``kernel(g, R, f, S, harmonic, betweenness)`` returns, for the
    sources ``S``, their harmonic values and the block's vertex and edge
    betweenness credit, with None for the parts not asked for. Returns
    ``(harmonic, vertex, edge)`` arrays, None where not asked for.
    """
    n = g.vertex_count
    blocks = [np.arange(i, min(i + BLOCK, n)) for i in range(0, n, BLOCK)]

    def run(S):
        return kernel(g, R, f, S, harmonic, betweenness)

    if workers <= 1 or len(blocks) <= 1:
        parts = [run(S) for S in blocks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run, blocks))

    h = np.zeros(n) if harmonic else None
    vb = np.zeros(n) if betweenness else None
    eb = np.zeros(g.edge_count) if betweenness else None
    for S, (ph, pv, pe) in zip(blocks, parts):
        if harmonic:
            h[S] = ph
        if betweenness:
            vb += pv
            eb += pe
    return h, vb, eb
