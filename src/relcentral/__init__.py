"""Centrality metrics on undirected graphs whose vertices carry an
intrinsic relevance value.

Classic degree, harmonic closeness, and vertex/edge betweenness come
out of the same machinery as their relevance-weighted extensions: a
uniform relevance vector reproduces the classic numbers, a non-trivial
one weights every pair (or path) contribution through a chosen
combination function.
"""

# set before the submodules load: io_formats writes it into every result
__version__ = "0.1.0"

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
from .experiments import (
    CorrelationRecord,
    ExperimentCell,
    ExperimentGrid,
    pearson,
    run_grid,
    spearman,
    write_correlation_csv,
)
from .generators import GeneratorConfig, assign_relevance, ring_lattice, watts_strogatz
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
from .oracle import (
    OracleLimits,
    all_pairs_shortest_paths,
    brute_betweenness,
    brute_degree,
    brute_harmonic,
    brute_shortest_paths,
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
    "GeneratorConfig",
    "ring_lattice",
    "watts_strogatz",
    "assign_relevance",
    "ExperimentCell",
    "ExperimentGrid",
    "CorrelationRecord",
    "pearson",
    "spearman",
    "run_grid",
    "write_correlation_csv",
    "OracleLimits",
    "brute_shortest_paths",
    "all_pairs_shortest_paths",
    "brute_degree",
    "brute_harmonic",
    "brute_betweenness",
    "load_edge_csv",
    "save_edge_csv",
    "load_relevance_csv",
    "save_relevance_csv",
    "load_f_matrix_csv",
    "ResultDocument",
    "build_result_document",
    "write_results_json",
    "export_dot",
]
