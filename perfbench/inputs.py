"""Benchmark-owned inputs: graphs and relevance files made with numpy.

Nothing here calls ``relcentral.generators``, so a change to the
library's generators cannot silently change a workload. Every array is
drawn from ``numpy.random.default_rng`` keyed on the run seed, so the
same seed writes byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    """One benchmark input family and the request cycle run on it."""

    name: str
    kind: str  # "ws" (Watts-Strogatz, p=1) or "ring" (ring lattice)
    n: int
    weighted: bool
    requests: tuple  # (f selector, --metric) per request of one cycle
    why: str
    d: int = 10
    r: float = 0.5

    @property
    def computes_paths(self) -> bool:
        return any(metric != "degree" for _, metric in self.requests)


_COMPUTE_CYCLE = (("product", "all"), ("path-prod", "all"))

# Sizes keep a --workers 1 cycle under a second on a 2-core machine, so one
# run holds several rounds; they stay fixed even if a change makes a case slower.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ws-lowdiam", "ws", 600, False, _COMPUTE_CYCLE,
            "low-diameter unweighted graph: dense high-frontier BFS levels, "
            "the batched engine's best case",
        ),
        Workload(
            "ring-deep", "ring", 400, False, _COMPUTE_CYCLE,
            "diameter 40: many nearly empty BFS levels, the batched engine's worst case",
        ),
        Workload(
            "weighted-sparse", "ws", 90, True, _COMPUTE_CYCLE,
            "continuous weights: Dijkstra plus big-int DAG rebuild and scalar accumulation",
        ),
        Workload(
            "ingest-large", "ws", 20000, False, (("product", "degree"),),
            "m=100000, degree only: CSV parse, graph build, degree loop and JSON output",
        ),
    )
}


def lattice_edges(n: int, d: int) -> list[tuple[int, int]]:
    """Ring lattice: vertex u tied to u+1..u+d/2 around the circle."""
    return [(u, (u + j) % n) for j in range(1, d // 2 + 1) for u in range(n)]


def watts_strogatz_edges(n: int, d: int, p: float, rng) -> list[tuple[int, int]]:
    """Watts-Strogatz rewiring of the ring lattice (networkx's procedure).

    Each lattice edge (u, u+j) is rewired with probability p to (u, w),
    w drawn uniformly among vertices that are neither u nor already
    adjacent to u.
    """
    k = d // 2
    adj = [set() for _ in range(n)]
    for u, v in lattice_edges(n, d):
        adj[u].add(v)
        adj[v].add(u)
    coins = rng.random((k, n)) < p
    draws = rng.integers(0, n, size=(k, n))
    for j in range(1, k + 1):
        for u in range(n):
            if not coins[j - 1, u]:
                continue
            v = (u + j) % n
            w = int(draws[j - 1, u])
            if len(adj[u]) >= n - 1:
                continue
            while w == u or w in adj[u]:
                w = int(rng.integers(0, n))
            adj[u].discard(v)
            adj[v].discard(u)
            adj[u].add(w)
            adj[w].add(u)
    return [(u, v) for u in range(n) for v in sorted(adj[u]) if u < v]


@dataclass(frozen=True)
class GraphInput:
    n: int
    u: np.ndarray  # int64 endpoint arrays, u < v, in file order
    v: np.ndarray
    w: np.ndarray | None  # float64 weights, None when unweighted


def make_graph(wl: Workload, seed: int) -> GraphInput:
    rng = np.random.default_rng([seed, 0])
    if wl.kind == "ring":
        pairs = lattice_edges(wl.n, wl.d)
    else:
        pairs = watts_strogatz_edges(wl.n, wl.d, 1.0, rng)
    uv = np.array(sorted((min(a, b), max(a, b)) for a, b in pairs), dtype=np.int64)
    w = rng.uniform(0.5, 2.0, size=len(uv)) if wl.weighted else None
    return GraphInput(wl.n, uv[:, 0].copy(), uv[:, 1].copy(), w)


def make_relevance(wl: Workload, seed: int, index: int) -> np.ndarray:
    """Relevance vector number ``index`` of a run: a fraction r of the
    vertices gets 1 + U(0, d), the rest 1."""
    rng = np.random.default_rng([seed, 1, index])
    r = np.ones(wl.n)
    boosted = rng.choice(wl.n, size=int(round(wl.r * wl.n)), replace=False)
    r[boosted] = 1.0 + rng.uniform(0.0, wl.d, size=len(boosted))
    return r


def write_edges(gi: GraphInput, path) -> None:
    # repr() round-trips every float, so the program reads the exact weights
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if gi.w is None:
            fh.write("source,target\n")
            fh.writelines(f"{a},{b}\n" for a, b in zip(gi.u.tolist(), gi.v.tolist()))
        else:
            fh.write("source,target,weight\n")
            fh.writelines(
                f"{a},{b},{wt!r}\n"
                for a, b, wt in zip(gi.u.tolist(), gi.v.tolist(), gi.w.tolist())
            )


def write_relevance(r: np.ndarray, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("vertex,relevance\n")
        fh.writelines(f"{i},{x!r}\n" for i, x in enumerate(r.tolist()))
