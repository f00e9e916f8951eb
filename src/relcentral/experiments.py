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
import numbers
import time
from dataclasses import dataclass, fields
from itertools import product as iproduct

import numpy as np

from .centrality import Metric, _reports
from .errors import ExperimentCellError, LengthMismatchError
from .generators import (
    GeneratorConfig,
    _check_degree,
    assign_relevance,
    ring_lattice,
    watts_strogatz,
)
from .graph import Graph
from .relevance import RelevanceFunction, Variant

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
ALL_VARIANTS = tuple(v for v in Variant if v is not Variant.MATRIX)


# A vector is constant when max - min <= CONSTANT_ULPS * n * eps * max|x|:
# two sums of the same n positive terms in different orders differ by up
# to about 2 * n * eps relative, so the equal values of a ring lattice pass
# (9e-13 relative at n = 1000) and a real difference, say 1e-6, does not.
CONSTANT_ULPS = 4


def _scaled(x: np.ndarray) -> np.ndarray:
    """``x`` times the power of two that puts its largest magnitude in [0.5, 1),
    so that its sums and squares stay inside float64; exact but for underflow."""
    return np.ldexp(x, -np.frexp(np.abs(x).max())[1])


def constant_input(x) -> bool:
    """True when the vector is constant up to rounding (``CONSTANT_ULPS``).
    Raises ValueError on a non-finite value, whose spread says nothing."""
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValueError("correlation input holds a non-finite value")
    if not len(x):
        return False
    x = _scaled(x)
    return bool(np.ptp(x) <= CONSTANT_ULPS * len(x) * np.finfo(np.float64).eps * np.abs(x).max())


def _paired(x, y) -> tuple[np.ndarray, np.ndarray] | None:
    """Both vectors as float64; None when either is constant. Raises on
    a shape mismatch, fewer than 2 samples or a non-finite value."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1 or x.shape != y.shape:
        raise LengthMismatchError(f"vectors of shape {x.shape} vs {y.shape}")
    if len(x) < 2:
        raise LengthMismatchError("correlation needs at least 2 samples")
    x_constant, y_constant = constant_input(x), constant_input(y)  # each raises on inf, nan
    if x_constant or y_constant:
        return None
    return x, y


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """Ranks from 1, tied values at the mean rank of their run, as
    ``scipy.stats.rankdata`` gives them."""
    order = np.argsort(x, kind="stable")
    sx = x[order]
    last = np.flatnonzero(np.append(sx[1:] != sx[:-1], True))  # end of each run
    first = np.append(0, last[:-1] + 1)
    ranks = np.empty(len(x))
    ranks[order] = np.repeat((first + last) / 2 + 1, last - first + 1)
    return ranks


def pearson(x, y) -> float:
    """Sample correlation; 0.0 (by definition here) when either side is
    constant (``constant_input``). Raises ValueError on an inf or nan."""
    pair = _paired(x, y)
    if pair is None:
        return 0.0
    # scaled before centring, so that no sum leaves float64; one root of
    # a correctly rounded square gives back its root, so pearson(x, x) is 1
    xc, yc = (v - v.mean() for v in map(_scaled, pair))
    return float(np.clip((xc @ yc) / np.sqrt((xc @ xc) * (yc @ yc)), -1.0, 1.0))


def spearman(x, y) -> float:
    """Pearson over fractional ranks; tied values share their average rank.
    0.0 when either side is constant, as for ``pearson``: the ranks of a
    vector that is constant up to rounding would rank the rounding."""
    pair = _paired(x, y)
    if pair is None:
        return 0.0
    return pearson(*map(_average_ranks, pair))


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


def _integer(key: str, x) -> int:
    """``x`` of the grid's ``key`` as an int; a number with a fraction,
    or anything else, is refused, not truncated."""
    if not _number(key, x, "an integer").is_integer():
        raise ValueError(f"grid {key}: expected an integer, got {x!r}")
    return int(x)


def _number(key: str, x, expected: str = "a number") -> float:
    """``x`` of the grid's ``key`` as a float; anything but a real number
    (a bool is not one), or an integer too large for a float, is refused."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise ValueError(f"grid {key}: expected {expected}, got {x!r}")
    try:
        return float(x)
    except OverflowError:
        raise ValueError(f"grid {key}: an integer too large for a float") from None


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
        # the same checks and conversions whether the grid comes from Python or from JSON;
        # a bare value is refused, as a string would be split into characters
        for key, value in zip(("kinds", "sizes", "r", "f", "metrics", "seeds"),
                              (self.kinds, self.sizes, self.rs, self.fs, self.metrics, self.seeds)):
            if not isinstance(value, (list, tuple)):
                raise ValueError(f"grid {key} must be a list, got {value!r}")
        for name, value in (
            ("kinds", tuple(self.kinds)),
            ("sizes", tuple(_integer("sizes", n) for n in self.sizes)),
            ("rs", tuple(_number("r", r) for r in self.rs)),
            ("fs", tuple(map(Variant, self.fs))),
            ("metrics", tuple(m.value if isinstance(m, Metric) else m for m in self.metrics)),
            ("seeds", tuple(_integer("seeds", s) for s in self.seeds)),
            ("d", _integer("d", self.d)),
        ):
            object.__setattr__(self, name, value)
        for k in self.kinds:
            if k not in KINDS:
                raise ValueError(f"unknown network kind {k!r}")
        for m in self.metrics:
            if m not in METRICS:
                raise ValueError(f"unknown metric {m!r}")
        for r in self.rs:
            if not 0.0 <= r <= 1.0:
                raise ValueError(f"relevance fraction {r} outside [0, 1]")
        if Variant.MATRIX in self.fs:
            raise ValueError("grid f: the matrix variant needs an F table, and a grid carries none")
        for s in self.seeds:
            if s < 0:
                raise ValueError(f"grid seeds: expected a non-negative integer, got {s}")
        for n in self.sizes:  # before any cell is built
            _check_degree(n, self.d)

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
        with open(path, encoding="utf-8-sig") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError("grid config must be a JSON object")
        known = {"kinds", "sizes", "r", "f", "metrics", "seeds", "d"}
        extra = set(raw) - known
        if extra:
            raise ValueError(f"unknown grid keys: {sorted(extra)}")
        names = {"r": "rs", "f": "fs"}
        kwargs = {names.get(key, key): value for key, value in raw.items()}
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


def _graph_key(c: ExperimentCell) -> tuple:
    """The cells that share a graph: the ring lattice does not depend on
    the seed, so one lattice and its classic baselines serve every seed."""
    return (c.kind, c.n) if c.kind == "regular" else (c.kind, c.n, c.seed)


def _build_network(kind: str, n: int, d: int, seed: int) -> Graph:
    if kind == "regular":
        return ring_lattice(n, d)
    # graph stream and relevance stream are kept apart: 2s vs 2s+1
    return watts_strogatz(GeneratorConfig(n=n, d=d, p=1.0, seed=2 * seed))


def _reads(c: ExperimentCell) -> tuple:
    """The memo keys a cell reads, in the order it reads them: its graph,
    its classic baseline (the sweep with uniform relevance and product f),
    its relevance vector and its weighted sweep."""
    gk, rk = ("graph",) + _graph_key(c), ("relevance", c.n, c.r, c.seed)
    return gk, ("sweep", gk, None, Variant.PRODUCT), rk, ("sweep", gk, rk, c.f)


def run_grid(grid: ExperimentGrid, workers: int = 1, progress=None) -> list[CorrelationRecord]:
    """Evaluate every cell; rows come back in ``grid.cells()`` order.

    Graphs, relevance vectors and sweeps are built by the first cell that
    reads them and dropped after the last one. A sweep is keyed by
    (graph, relevance, f), the classic baseline being the one with
    uniform relevance and product f, and gives every metric of
    ``grid.metrics`` at once, so the harmonic and betweenness cells of a
    job share it. ``workers`` runs the source blocks of each sweep, as
    in ``compute``; the rows do not depend on it.
    ``progress(done, total, cell, seconds)``, if given, is called after
    each cell, with the number of cells done so far and the cell's wall
    time, which includes whatever the cell was first to read.
    """
    cells = grid.cells()
    reads = [_reads(c) for c in cells]
    last = {key: i for i, keys in enumerate(reads) for key in keys}
    held: dict = {}

    def sweep(g, R, f):
        return _reports(g, R, RelevanceFunction(f), grid.metrics, workers)

    def read(key, make):
        if key not in held:
            held[key] = make()
        return held[key]

    def record(c, gk, bk, rk, wk):
        g = read(gk, lambda: _build_network(c.kind, c.n, grid.d, c.seed))
        m = Metric(c.metric)
        base = read(bk, lambda: sweep(g, None, Variant.PRODUCT))[m].values
        R = read(rk, lambda: assign_relevance(c.n, grid.d, c.r, 2 * c.seed + 1))
        ext = read(wk, lambda: sweep(g, R, c.f))[m].values
        return CorrelationRecord(
            c.kind, c.n, c.p, c.r, c.f.value, c.metric, c.seed,
            pearson(base, ext), spearman(base, ext),
            pearson(R.values, base), spearman(R.values, base),
            constant_input(base) or constant_input(ext) or constant_input(R.values),
        )

    records = []
    for i, (c, keys) in enumerate(zip(cells, reads)):
        t0 = time.perf_counter()
        try:
            records.append(record(c, *keys))
        except Exception as exc:
            raise ExperimentCellError(c.cell_id, str(exc)) from exc
        for key in keys:
            if last[key] == i:
                del held[key]
        if progress is not None:
            progress(i + 1, len(cells), c, time.perf_counter() - t0)
    return records


CSV_COLUMNS = tuple(field.name for field in fields(CorrelationRecord))


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
                    int(rec.constant_flag),
                ]
            )
