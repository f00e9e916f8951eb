"""Exception types shared across the package."""


class RelcentralError(Exception):
    """Base class for all errors raised by this package."""


# --- graph construction / lookup ---


class DuplicateEdgeError(RelcentralError):
    """The same unordered vertex pair appears more than once."""


class SelfLoopError(RelcentralError):
    """An edge connects a vertex to itself."""


class NonPositiveWeightError(RelcentralError):
    """An edge weight is zero, negative, or not finite."""


class UnknownVertexError(RelcentralError, KeyError):
    """A vertex label or index is not part of the graph."""


# --- relevance functions ---


class PathVariantRequiresPathError(RelcentralError):
    """A path-dependent function was evaluated on an endpoint pair."""


class PathVariantNotApplicableError(RelcentralError):
    """A path-dependent function was passed to a metric with no paths."""


class DiagonalQueryError(RelcentralError):
    """A pair function was queried with identical endpoints."""


class EmptyPathError(RelcentralError):
    """A path evaluation received fewer than two vertices."""


class MatrixShapeMismatchError(RelcentralError):
    """A matrix-form relevance function has the wrong shape or content."""


# --- shortest paths ---


class SigmaOverflowError(RelcentralError):
    """A fixed-width shortest-path counter overflowed."""


class ResourceLimitError(RelcentralError):
    """Even one source's shortest-path DAG exceeds the memory budget."""


# --- generators ---


class InvalidDegreeError(RelcentralError):
    """Ring-lattice mean degree must be even and in (0, n)."""


# --- experiments ---


class LengthMismatchError(RelcentralError):
    """Correlation inputs have different lengths."""


class ExperimentCellError(RelcentralError):
    """A grid cell failed; the message carries the cell id."""

    def __init__(self, cell_id: str, message: str):
        super().__init__(f"cell {cell_id}: {message}")
        self.cell_id = cell_id


# --- file formats ---


class MalformedRowError(RelcentralError):
    """A CSV row could not be parsed; the message carries the line number."""

    def __init__(self, path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.line_no = line_no


class UnknownVertexInRelevanceError(RelcentralError):
    """A relevance file names a vertex absent from the graph."""


class NonzeroDiagonalError(RelcentralError):
    """A relevance matrix file has a nonzero diagonal entry."""


# --- oracle ---


class TooLargeError(RelcentralError):
    """The input exceeds the brute-force oracle's size limits."""
