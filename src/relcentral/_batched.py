"""Vectorized lockstep-BFS engine for unweighted graphs.

Sources run in the fixed blocks of ``_sweep``; one block advances all
its BFS frontiers level by level with sparse matmuls, then runs the
backward credit pass the same way. Path counts live in float64 here;
counts that overflow to inf raise instead of silently degrading.
"""

from __future__ import annotations

import numpy as np

from ._sweep import sweep
from .errors import SigmaOverflowError
from .graph import Graph
from .relevance import RelevanceFunction, RelevanceVector, Variant, pair_value_block


def _forward(g: Graph, R: RelevanceVector, f: RelevanceFunction, S: np.ndarray):
    """Lockstep BFS for one batch of sources.

    Returns (levels, sigma, fwd, max_level) where levels is -1 for
    unreachable entries and fwd carries the path-variant forward state
    (total path weight per target), or None for pairwise f.
    """
    A = g.adjacency_matrix
    n = g.vertex_count
    b = len(S)
    rows = np.arange(b)
    r = R.values

    L = np.full((b, n), -1, dtype=np.int32)
    L[rows, S] = 0
    sigma = np.zeros((b, n))
    sigma[rows, S] = 1.0

    variant = f.variant
    fwd = None
    if variant.is_path:
        fwd = np.zeros((b, n))
        fwd[rows, S] = r[S]

    frontier = L == 0
    lev = 0
    # sigma may run past float64 range mid-loop; the isinf check below
    # turns that into a typed error, so the intermediate noise is muted
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            counts = (sigma * frontier) @ A
            new = (L < 0) & (counts > 0)
            if not new.any():
                break
            lev += 1
            L[new] = lev
            sigma[new] = counts[new]
            if variant is Variant.PATH_PROD:
                prop = (fwd * frontier) @ A
                fwd[new] = (prop * r[None, :])[new]
            elif variant is Variant.PATH_SUM:
                prop = (fwd * frontier) @ A
                fwd[new] = prop[new] + (counts * r[None, :])[new]
            frontier = new

    if np.isinf(sigma).any():
        raise SigmaOverflowError(
            "shortest-path counts exceed float64 range in the batched engine"
        )
    return L, sigma, fwd, lev


def block(g, R, f, S: np.ndarray, harmonic: bool, betweenness: bool):
    """Harmonic values of the sources S and their betweenness credit."""
    L, sigma, fwd, maxlev = _forward(g, R, f, S)
    hv = _harmonic(R, f, S, L, sigma, fwd) if harmonic else None
    if not betweenness:
        return hv, None, None
    return (hv, *_betweenness(g, R, f, S, L, sigma, fwd, maxlev))


def _harmonic(R, f, S, L, sigma, fwd) -> np.ndarray:
    mask = L > 0
    D = np.where(mask, L, 1).astype(np.float64)
    if f.variant.is_path:
        contrib = np.where(mask, fwd / (np.where(mask, sigma, 1.0) * D), 0.0)
    else:
        fv = pair_value_block(f, S, R)
        contrib = np.where(mask, fv / D, 0.0)
    return contrib.sum(axis=1)


def _betweenness(g, R, f, S, L, sigma, fwd, maxlev):
    A = g.adjacency_matrix
    n = g.vertex_count
    b = len(S)
    rows = np.arange(b)
    r = R.values
    u, v = g.edge_endpoints

    sigma_safe = np.where(sigma > 0, sigma, 1.0)

    Lu = L[:, u]
    Lv = L[:, v]
    down_uv = (Lu >= 0) & (Lv == Lu + 1)  # DAG edge u -> v for this source
    down_vu = (Lv >= 0) & (Lu == Lv + 1)

    variant = f.variant
    if variant.is_pairwise:
        fv = pair_value_block(f, S, R)
        delta = np.zeros((b, n))
        for lev in range(maxlev, 0, -1):
            wmask = L == lev
            coeff = np.where(wmask, (fv + delta) / sigma_safe, 0.0)
            contrib = coeff @ A
            delta += np.where(L == lev - 1, contrib * sigma, 0.0)
        tail = fv + delta
        cred = np.where(down_uv, (sigma[:, u] / sigma_safe[:, v]) * tail[:, v], 0.0)
        cred += np.where(down_vu, (sigma[:, v] / sigma_safe[:, u]) * tail[:, u], 0.0)
        eb = cred.sum(axis=0)
        delta[rows, S] = 0.0
        vb = delta.sum(axis=0)
        return vb, eb

    if variant is Variant.PATH_PROD:
        succ_sum = np.zeros((b, n))
        K = np.zeros((b, n))  # K(w), filled level by level (levels are disjoint)
        for lev in range(maxlev, 0, -1):
            wmask = L == lev
            klev = np.where(wmask, r[None, :] * (1.0 / sigma_safe + succ_sum), 0.0)
            K += klev
            succ_sum += np.where(L == lev - 1, klev @ A, 0.0)
        credit = fwd * succ_sum
        credit[rows, S] = 0.0
        vb = credit.sum(axis=0)
        cred = np.where(down_uv, fwd[:, u] * K[:, v], 0.0)
        cred += np.where(down_vu, fwd[:, v] * K[:, u], 0.0)
        return vb, cred.sum(axis=0)

    # PATH_SUM: track suffix path-count mass and suffix sum-of-R mass
    cnt_sum = np.zeros((b, n))
    sum_sum = np.zeros((b, n))
    Kc = np.zeros((b, n))
    Ks = np.zeros((b, n))
    inv_sigma = 1.0 / sigma_safe
    for lev in range(maxlev, 0, -1):
        wmask = L == lev
        kc = np.where(wmask, inv_sigma + cnt_sum, 0.0)
        ks = np.where(wmask, r[None, :] * (inv_sigma + cnt_sum) + sum_sum, 0.0)
        Kc += kc
        Ks += ks
        pmask = L == lev - 1
        cnt_sum += np.where(pmask, kc @ A, 0.0)
        sum_sum += np.where(pmask, ks @ A, 0.0)
    credit = fwd * cnt_sum + sigma * sum_sum
    credit[rows, S] = 0.0
    vb = credit.sum(axis=0)
    cred = np.where(down_uv, fwd[:, u] * Kc[:, v] + sigma[:, u] * Ks[:, v], 0.0)
    cred += np.where(down_vu, fwd[:, v] * Kc[:, u] + sigma[:, v] * Ks[:, u], 0.0)
    return vb, cred.sum(axis=0)


def batched_betweenness(g: Graph, R: RelevanceVector, f: RelevanceFunction, workers: int = 1):
    _, vb, eb = sweep(block, g, R, f, workers, harmonic=False, betweenness=True)
    return vb, eb


def batched_harmonic(g: Graph, R: RelevanceVector, f: RelevanceFunction, workers: int = 1):
    return sweep(block, g, R, f, workers, harmonic=True, betweenness=False)[0]
