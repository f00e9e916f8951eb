"""Vertex intrinsic relevance and the functions that combine it.

A :class:`RelevanceVector` holds one positive value R_v per vertex
(wealth, demand, any problem-specific importance; units are the
caller's business). A :class:`RelevanceFunction` turns relevances into
the weight a vertex pair, or a whole path, contributes to a metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    DiagonalQueryError,
    EmptyPathError,
    MatrixShapeMismatchError,
    NonzeroDiagonalError,
    PathVariantRequiresPathError,
)
from .graph import Graph

__all__ = [
    "Variant",
    "RelevanceVector",
    "RelevanceFunction",
    "ValidationReport",
    "PRODUCT",
    "MEAN",
    "SOURCE_ONLY",
    "MAX",
    "PATH_SUM",
    "PATH_PROD",
    "matrix_function",
    "eval_pair",
    "eval_path",
    "validate_function",
    "pair_values",
    "pair_value_block",
]


class Variant(str, Enum):
    """Built-in ways of combining relevance. Values double as CLI names."""

    PRODUCT = "product"
    MEAN = "mean"
    SOURCE_ONLY = "source"
    MAX = "max"
    PATH_SUM = "path-sum"
    PATH_PROD = "path-prod"
    MATRIX = "matrix"

    @property
    def is_path(self) -> bool:
        return self in (Variant.PATH_SUM, Variant.PATH_PROD)

    @property
    def is_pairwise(self) -> bool:
        return not self.is_path

    @property
    def is_symmetric(self) -> bool:
        return self in (Variant.PRODUCT, Variant.MEAN, Variant.MAX)


@dataclass(frozen=True)
class RelevanceVector:
    """Per-vertex relevance, aligned with a graph's internal indices.

    Values must be strictly positive and finite. Zero is rejected on
    purpose: a single zero would annihilate every path product through
    that vertex.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError(f"relevance must be a flat vector, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
            bad = int(np.argmin(np.where(np.isfinite(arr), arr, -np.inf)))
            raise ValueError(
                f"relevance values must be positive and finite; offending index {bad}"
            )
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @classmethod
    def ones(cls, n: int) -> "RelevanceVector":
        return cls(np.ones(n))

    @classmethod
    def from_mapping(cls, g: Graph, mapping: Mapping[str, float]) -> "RelevanceVector":
        """Build a vector for ``g``; vertices absent from ``mapping`` get R=1."""
        vals = np.ones(g.vertex_count)
        for label, r in mapping.items():
            vals[g.index_of(label)] = r
        return cls(vals)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int) -> float:
        return float(self.values[i])

    def is_uniform(self) -> bool:
        return bool(np.all(self.values == 1.0))


@dataclass(frozen=True, eq=False)
class RelevanceFunction:
    """A pair/path combination rule; the Matrix variant carries its table."""

    variant: Variant
    matrix: np.ndarray | None = None

    def __post_init__(self):
        if self.variant is Variant.MATRIX:
            if self.matrix is None:
                raise MatrixShapeMismatchError("matrix variant requires an F table")
            F = np.asarray(self.matrix, dtype=np.float64)
            if F.ndim != 2 or F.shape[0] != F.shape[1]:
                raise MatrixShapeMismatchError(
                    f"F must be square, got shape {F.shape}"
                )
            F = F.copy()
            F.setflags(write=False)
            object.__setattr__(self, "matrix", F)
        elif self.matrix is not None:
            raise MatrixShapeMismatchError(
                f"variant {self.variant.value!r} does not take a matrix"
            )

    @property
    def label(self) -> str:
        return self.variant.value


PRODUCT = RelevanceFunction(Variant.PRODUCT)
MEAN = RelevanceFunction(Variant.MEAN)
SOURCE_ONLY = RelevanceFunction(Variant.SOURCE_ONLY)
MAX = RelevanceFunction(Variant.MAX)
PATH_SUM = RelevanceFunction(Variant.PATH_SUM)
PATH_PROD = RelevanceFunction(Variant.PATH_PROD)


def matrix_function(F: np.ndarray) -> RelevanceFunction:
    return RelevanceFunction(Variant.MATRIX, F)


def eval_pair(f: RelevanceFunction, s: int, t: int, R: RelevanceVector) -> float:
    """Pair weight f(R_s, R_t) for internal vertex indices s, t."""
    if s == t:
        raise DiagonalQueryError(f"pair weight undefined on the diagonal (s = t = {s})")
    v = f.variant
    if v is Variant.PRODUCT:
        return R[s] * R[t]
    if v is Variant.MEAN:
        return (R[s] + R[t]) / 2.0
    if v is Variant.SOURCE_ONLY:
        return R[s]
    if v is Variant.MAX:
        return max(R[s], R[t])
    if v is Variant.MATRIX:
        return float(f.matrix[s, t])
    raise PathVariantRequiresPathError(
        f"{v.value} is path-dependent; evaluate it on a concrete path"
    )


def eval_path(f: RelevanceFunction, path: Sequence[int], R: RelevanceVector) -> float:
    """Weight of one concrete path (sequence of internal indices).

    Path variants aggregate R over every vertex of the path, endpoints
    included; pairwise variants only look at the endpoints, so they
    delegate to :func:`eval_pair`.
    """
    if len(path) < 2:
        raise EmptyPathError(f"path needs at least 2 vertices, got {len(path)}")
    v = f.variant
    if v is Variant.PATH_SUM:
        return float(sum(R[p] for p in path))
    if v is Variant.PATH_PROD:
        out = 1.0
        for p in path:
            out *= R[p]
        return out
    return eval_pair(f, path[0], path[-1], R)


@dataclass
class ValidationReport:
    variant: Variant
    normalized: bool | None  # f(1,1) = 1; None when not meaningful
    monotone: bool | None
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.warnings


_PROBE = (0.5, 1.0, 2.0, 4.0)


def validate_function(f: RelevanceFunction) -> ValidationReport:
    """Check the conditions a well-behaved f is expected to satisfy.

    Normalization f(1,1)=1 and monotonicity violations are reported as
    warnings, not errors: path variants and matrix tables may break
    them legitimately. Structural matrix problems (non-square, nonzero
    diagonal) are hard errors.
    """
    v = f.variant
    if v is Variant.MATRIX:
        F = f.matrix
        if np.any(np.diagonal(F) != 0.0):
            raise NonzeroDiagonalError("F diagonal must be identically zero")
        rep = ValidationReport(v, normalized=None, monotone=None)
        if np.any(F < 0.0):
            rep.warnings.append("F contains negative entries")
        return rep

    if v is Variant.PATH_SUM:
        rep = ValidationReport(v, normalized=False, monotone=True)
        rep.warnings.append(
            "normalization f(1,1)=1 does not hold: an all-ones path of k vertices sums to k"
        )
        return rep
    if v is Variant.PATH_PROD:
        # an all-ones path multiplies to 1 at every length
        return ValidationReport(v, normalized=True, monotone=True)

    R2 = RelevanceVector(np.array([1.0, 1.0]))
    normalized = eval_pair(f, 0, 1, R2) == 1.0
    monotone = True
    for a in _PROBE:
        for b in _PROBE:
            base = eval_pair(f, 0, 1, RelevanceVector(np.array([a, b])))
            for a2 in _PROBE:
                if a2 < a:
                    continue
                for b2 in _PROBE:
                    if b2 < b:
                        continue
                    if eval_pair(f, 0, 1, RelevanceVector(np.array([a2, b2]))) < base:
                        monotone = False
    rep = ValidationReport(v, normalized=normalized, monotone=monotone)
    if not normalized:
        rep.warnings.append("f(1,1) != 1")
    if not monotone:
        rep.warnings.append("f is not monotone on the probe grid")
    return rep


def pair_values(f: RelevanceFunction, s, t, R: RelevanceVector) -> np.ndarray:
    """f(R_s, R_t) elementwise over broadcastable index arrays s and t.

    This is the one array form of :func:`eval_pair` the engines use.
    Entries where s == t are 0 rather than an error: no metric sums
    over the diagonal.
    """
    r = R.values
    v = f.variant
    if v is Variant.PRODUCT:
        out = r[s] * r[t]
    elif v is Variant.MEAN:
        out = (r[s] + r[t]) / 2.0
    elif v is Variant.SOURCE_ONLY:
        out = r[s]
    elif v is Variant.MAX:
        out = np.maximum(r[s], r[t])
    elif v is Variant.MATRIX:
        out = f.matrix[s, t]
    else:
        raise PathVariantRequiresPathError(
            f"{v.value} has no per-pair value independent of the path"
        )
    return np.where(np.equal(s, t), 0.0, out)


def pair_value_block(f: RelevanceFunction, sources: np.ndarray, R: RelevanceVector) -> np.ndarray:
    """(len(sources), V) block of pair values, diagonal entries zeroed."""
    return pair_values(f, np.asarray(sources)[:, None], np.arange(len(R)), R)
