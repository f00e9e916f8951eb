"""Synthetic networks and randomized relevance assignment.

Ring lattices and Watts-Strogatz rewiring, plus the relevance
randomization used by the correlation study: a fraction r of vertices
gets R = 1 + U(0, d), the rest stay at 1. Everything is deterministic
under a seed (PCG64 behind numpy's default_rng).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InvalidDegreeError
from .graph import Graph, build_graph
from .relevance import RelevanceVector

__all__ = ["GeneratorConfig", "ring_lattice", "watts_strogatz", "assign_relevance"]

_REWIRE_RETRIES = 100


def _check_degree(n: int, d: int) -> None:
    if d <= 0 or d % 2 != 0 or d >= n:
        raise InvalidDegreeError(
            f"mean degree must be even with 0 < d < n, got d={d}, n={n}"
        )


@dataclass(frozen=True)
class GeneratorConfig:
    n: int
    d: int
    p: float = 0.0
    seed: int = 0

    def __post_init__(self):
        _check_degree(self.n, self.d)
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"rewiring probability p={self.p} outside [0, 1]")


def _labels(n: int) -> list[str]:
    return [f"v{i}" for i in range(n)]


def _lattice_pairs(n: int, d: int) -> list[list[int]]:
    # ring by ring: j-th ring links every i to i+j around the circle
    return [[i, (i + j) % n] for j in range(1, d // 2 + 1) for i in range(n)]


def ring_lattice(n: int, d: int) -> Graph:
    """Circulant graph: each vertex tied to its d/2 nearest on each side."""
    _check_degree(n, d)
    pairs = _lattice_pairs(n, d)
    return build_graph(
        [(f"v{a}", f"v{b}") for a, b in pairs], vertices=_labels(n)
    )


def watts_strogatz(cfg: GeneratorConfig) -> Graph:
    """Rewire each lattice edge's far endpoint with probability p.

    Candidates colliding with an existing edge or the vertex itself
    are redrawn; after a retry budget the original edge is kept (with
    a warning), so the edge count is always n*d/2.
    """
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n
    pairs = _lattice_pairs(n, cfg.d)
    adj: list[set[int]] = [set() for _ in range(n)]
    for a, b in pairs:
        adj[a].add(b)
        adj[b].add(a)

    for pair in pairs:
        if rng.random() >= cfg.p:
            continue
        a, b = pair
        for _ in range(_REWIRE_RETRIES):
            c = int(rng.integers(n))
            if c == a or c in adj[a]:
                continue
            adj[a].remove(b)
            adj[b].remove(a)
            adj[a].add(c)
            adj[c].add(a)
            pair[1] = c
            break
        else:
            warnings.warn(
                f"no rewiring target found for edge {a}-{b} after "
                f"{_REWIRE_RETRIES} tries; keeping the lattice edge"
            )

    return build_graph(
        [(f"v{a}", f"v{b}") for a, b in pairs], vertices=_labels(n)
    )


def assign_relevance(n: int, d: float, r: float, seed: int) -> RelevanceVector:
    """floor(r*n) distinct vertices get R = 1 + U(0, d); the rest get 1."""
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"relevance fraction r={r} outside [0, 1]")
    rng = np.random.default_rng(seed)
    vals = np.ones(n)
    k = int(Fraction(str(float(r))) * n)  # of r as written: int(0.29 * 100) is 28
    if k:
        chosen = rng.choice(n, size=k, replace=False)
        vals[chosen] = 1.0 + rng.uniform(0.0, d, size=k)
    return RelevanceVector(vals)
