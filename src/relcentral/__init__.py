"""Centrality metrics on undirected graphs whose vertices carry an
intrinsic relevance value.

Classic degree, harmonic closeness, and vertex/edge betweenness come
out of the same machinery as their relevance-weighted extensions: a
uniform relevance vector reproduces the classic numbers, a non-trivial
one weights every pair (or path) contribution through a chosen
combination function.

``import relcentral`` loads the modules that a ``compute`` request runs:
``errors``, ``graph``, ``relevance``, ``_batched``, ``centrality`` and
``io_formats``. ``experiments``, ``generators`` and ``oracle`` load on
first use, when one of their names is first read from the package
(``relcentral.run_grid``, ``relcentral.oracle``, ``from relcentral
import *``) or when they are imported directly.
"""

# set before the submodules load: io_formats writes it into every result
__version__ = "0.1.0"

import importlib

from . import errors
from .centrality import (
    CentralityReport,
    Metric,
    betweenness_reports,
    degree_centrality,
    edge_betweenness,
    harmonic_centrality,
    vertex_betweenness,
)
from .errors import RelcentralError
from .graph import Graph, build_graph
from .io_formats import (
    ResultDocument,
    build_result_document,
    export_dot,
    load_edge_csv,
    load_f_matrix_csv,
    load_relevance_csv,
    save_edge_csv,
    save_relevance_csv,
    write_results_json,
)
from .relevance import (
    MAX,
    MEAN,
    PATH_PROD,
    PATH_SUM,
    PRODUCT,
    SOURCE_ONLY,
    RelevanceFunction,
    RelevanceVector,
    Variant,
    eval_pair,
    eval_path,
    matrix_function,
    validate_function,
)

# the public names of the modules that load on first use; a compute
# request runs none of them
_ON_FIRST_USE = {
    "experiments": (
        "CorrelationRecord",
        "ExperimentCell",
        "ExperimentGrid",
        "pearson",
        "run_grid",
        "spearman",
        "write_correlation_csv",
    ),
    "generators": ("GeneratorConfig", "assign_relevance", "ring_lattice", "watts_strogatz"),
    "oracle": (
        "OracleLimits",
        "all_pairs_shortest_paths",
        "brute_betweenness",
        "brute_degree",
        "brute_harmonic",
        "brute_shortest_paths",
    ),
}

__all__ = [
    "errors",
    "RelcentralError",
    "Graph",
    "build_graph",
    "RelevanceVector",
    "RelevanceFunction",
    "Variant",
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
    "Metric",
    "CentralityReport",
    "degree_centrality",
    "harmonic_centrality",
    "vertex_betweenness",
    "edge_betweenness",
    "betweenness_reports",
    "load_edge_csv",
    "save_edge_csv",
    "load_relevance_csv",
    "save_relevance_csv",
    "load_f_matrix_csv",
    "ResultDocument",
    "build_result_document",
    "write_results_json",
    "export_dot",
    *(name for names in _ON_FIRST_USE.values() for name in names),
]
_HOME = {name: module for module, names in _ON_FIRST_USE.items() for name in (module, *names)}


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # importing the submodule also binds it on the package
    value = importlib.import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
        globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME))
