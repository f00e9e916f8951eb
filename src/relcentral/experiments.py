"""Correlation study: classic vs relevance-weighted metrics.

One grid cell fixes a network family, size, relevance fraction,
combination function, metric, and seed. For each cell we compute the
classic metric (uniform relevance) and the weighted one, and report
Pearson and Spearman correlation between them, plus the same two
statistics between the raw relevance vector and the classic metric.

For a fixed seed the graph is shared across r and f values, so trends
across cells are read on matched networks.
"""

from __future__ import annotations

import csv
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import product as iproduct

import numpy as np

from .centrality import harmonic_centrality, vertex_betweenness
from .errors import ExperimentCellError, LengthMismatchError
from .generators import GeneratorConfig, assign_relevance, ring_lattice, watts_strogatz
from .graph import Graph
from .relevance import RelevanceFunction, RelevanceVector, Variant

__all__ = [
    "ExperimentCell",
    "ExperimentGrid",
    "CorrelationRecord",
    "pearson",
    "spearman",
    "constant_input",
    "run_grid",
    "write_correlation_csv",
]

KINDS = ("regular", "random")
METRICS = ("betweenness", "harmonic")
ALL_VARIANTS = (
    Variant.PRODUCT,
    Variant.MEAN,
    Variant.SOURCE_ONLY,
    Variant.MAX,
    Variant.PATH_SUM,
    Variant.PATH_PROD,
)


def constant_input(x) -> bool:
    x = np.asarray(x)
    return bool(len(x)) and bool(np.all(x == x[0]))


def pearson(x, y) -> float:
    """Sample correlation; 0.0 (by definition here) when either side is flat."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1 or x.shape != y.shape:
        raise LengthMismatchError(f"vectors of shape {x.shape} vs {y.shape}")
    if len(x) < 2:
        raise LengthMismatchError("correlation needs at least 2 samples")
    xc = x - x.mean()
    yc = y - y.mean()
    sx = float(xc @ xc) ** 0.5
    sy = float(yc @ yc) ** 0.5
    if sx == 0.0 or sy == 0.0:
        return 0.0
    return float(np.clip((xc @ yc) / (sx * sy), -1.0, 1.0))


def spearman(x, y) -> float:
    """Pearson over fractional ranks; tied values share their average rank."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1 or x.shape != y.shape:
        raise LengthMismatchError(f"vectors of shape {x.shape} vs {y.shape}")
    if len(x) < 2:
        raise LengthMismatchError("correlation needs at least 2 samples")
    from scipy.stats import rankdata  # scipy.stats takes most of a second to import

    return pearson(rankdata(x), rankdata(y))


@dataclass(frozen=True)
class ExperimentCell:
    kind: str  # "regular" | "random"
    n: int
    p: float  # 0 for regular, 1 for random
    r: float
    f: Variant
    metric: str  # "betweenness" | "harmonic"
    seed: int

    @property
    def cell_id(self) -> str:
        return (
            f"{self.kind}-n{self.n}-p{self.p:g}-r{self.r:g}"
            f"-{self.f.value}-{self.metric}-s{self.seed}"
        )

    def sort_key(self):
        return (self.kind, self.n, self.p, self.r, self.f.value, self.metric, self.seed)


@dataclass(frozen=True)
class ExperimentGrid:
    kinds: tuple[str, ...] = KINDS
    sizes: tuple[int, ...] = (100, 1000)
    rs: tuple[float, ...] = (0.1, 1.0)
    fs: tuple[Variant, ...] = ALL_VARIANTS
    metrics: tuple[str, ...] = METRICS
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    d: int = 10

    def __post_init__(self):
        for k in self.kinds:
            if k not in KINDS:
                raise ValueError(f"unknown network kind {k!r}")
        for m in self.metrics:
            if m not in METRICS:
                raise ValueError(f"unknown metric {m!r}")
        for r in self.rs:
            if not 0.0 <= r <= 1.0:
                raise ValueError(f"relevance fraction {r} outside [0, 1]")

    def cells(self) -> list[ExperimentCell]:
        out = [
            ExperimentCell(
                kind=k,
                n=n,
                p=0.0 if k == "regular" else 1.0,
                r=r,
                f=f,
                metric=m,
                seed=s,
            )
            for k, n, r, f, m, s in iproduct(
                self.kinds, self.sizes, self.rs, self.fs, self.metrics, self.seeds
            )
        ]
        out.sort(key=ExperimentCell.sort_key)
        return out

    @classmethod
    def from_json(cls, path) -> "ExperimentGrid":
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError("grid config must be a JSON object")
        known = {"kinds", "sizes", "r", "f", "metrics", "seeds", "d"}
        extra = set(raw) - known
        if extra:
            raise ValueError(f"unknown grid keys: {sorted(extra)}")
        kwargs = {}
        if "kinds" in raw:
            kwargs["kinds"] = tuple(raw["kinds"])
        if "sizes" in raw:
            kwargs["sizes"] = tuple(int(n) for n in raw["sizes"])
        if "r" in raw:
            kwargs["rs"] = tuple(float(r) for r in raw["r"])
        if "f" in raw:
            kwargs["fs"] = tuple(Variant(v) for v in raw["f"])
        if "metrics" in raw:
            kwargs["metrics"] = tuple(raw["metrics"])
        if "seeds" in raw:
            kwargs["seeds"] = tuple(int(s) for s in raw["seeds"])
        if "d" in raw:
            kwargs["d"] = int(raw["d"])
        return cls(**kwargs)


@dataclass(frozen=True)
class CorrelationRecord:
    kind: str
    n: int
    p: float
    r: float
    f: str
    metric: str
    seed: int
    pearson: float
    spearman: float
    pearson_R: float
    spearman_R: float
    constant_flag: bool  # some input vector was constant; 0.0 sentinels inside


def _build_network(kind: str, n: int, d: int, seed: int) -> Graph:
    if kind == "regular":
        return ring_lattice(n, d)
    # graph stream and relevance stream are kept apart: 2s vs 2s+1
    return watts_strogatz(GeneratorConfig(n=n, d=d, p=1.0, seed=2 * seed))


def _metric_values(g: Graph, R: RelevanceVector | None, f: RelevanceFunction, metric: str):
    if metric == "betweenness":
        return vertex_betweenness(g, R, f).values
    return harmonic_centrality(g, R, f).values


def run_grid(grid: ExperimentGrid, workers: int = 1) -> list[CorrelationRecord]:
    """Evaluate every cell; rows come back sorted by cell id.

    Graphs, classic baselines, and relevance vectors are shared across
    the cells that agree on them, then weighted metrics run per cell
    (possibly in parallel; the output order is fixed either way).
    """
    cells = grid.cells()

    graphs: dict = {}
    classic: dict = {}
    relevances: dict = {}
    for c in cells:
        try:
            gk = (c.kind, c.n, c.seed)
            if gk not in graphs:
                graphs[gk] = _build_network(c.kind, c.n, grid.d, c.seed)
            ck = gk + (c.metric,)
            if ck not in classic:
                classic[ck] = _metric_values(
                    graphs[gk], None, RelevanceFunction(Variant.PRODUCT), c.metric
                )
            rk = (c.n, c.r, c.seed)
            if rk not in relevances:
                relevances[rk] = assign_relevance(c.n, grid.d, c.r, 2 * c.seed + 1)
        except Exception as exc:
            raise ExperimentCellError(c.cell_id, str(exc)) from exc

    def run_cell(c: ExperimentCell) -> CorrelationRecord:
        try:
            g = graphs[(c.kind, c.n, c.seed)]
            base = classic[(c.kind, c.n, c.seed, c.metric)]
            R = relevances[(c.n, c.r, c.seed)]
            ext = _metric_values(g, R, RelevanceFunction(c.f), c.metric)
            return CorrelationRecord(
                kind=c.kind,
                n=c.n,
                p=c.p,
                r=c.r,
                f=c.f.value,
                metric=c.metric,
                seed=c.seed,
                pearson=pearson(base, ext),
                spearman=spearman(base, ext),
                pearson_R=pearson(R.values, base),
                spearman_R=spearman(R.values, base),
                constant_flag=constant_input(base)
                or constant_input(ext)
                or constant_input(R.values),
            )
        except Exception as exc:
            raise ExperimentCellError(c.cell_id, str(exc)) from exc

    if workers <= 1:
        return [run_cell(c) for c in cells]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run_cell, cells))


CSV_COLUMNS = (
    "kind", "n", "p", "r", "f", "metric", "seed",
    "pearson", "spearman", "pearson_R", "spearman_R",
)


def write_correlation_csv(records: list[CorrelationRecord], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(CSV_COLUMNS)
        for rec in records:
            w.writerow(
                [
                    rec.kind,
                    rec.n,
                    f"{rec.p:g}",
                    f"{rec.r:g}",
                    rec.f,
                    rec.metric,
                    rec.seed,
                    f"{rec.pearson:.12g}",
                    f"{rec.spearman:.12g}",
                    f"{rec.pearson_R:.12g}",
                    f"{rec.spearman_R:.12g}",
                ]
            )
