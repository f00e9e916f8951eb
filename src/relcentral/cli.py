"""Command-line front end.

Three subcommands: ``compute`` runs metrics on CSV inputs, ``generate``
writes synthetic network/relevance files, ``experiment`` runs the
correlation grid. Exit codes: 0 ok, 2 bad input, 3 a computation blew
a limit.

``generate``, ``experiment`` and ``compute --engine oracle`` import the
module they run when they start, so that a ``compute`` request loads
only what it runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import io_formats
from .centrality import (
    CentralityReport,
    Metric,
    _make_report,
    _path_reports,
    degree_centrality,
)
from .errors import (
    ExperimentCellError,
    PathVariantNotApplicableError,
    RelcentralError,
    ResourceLimitError,
    SigmaOverflowError,
    TooLargeError,
)
from .graph import Graph, build_graph_chunks
from .relevance import RelevanceFunction, RelevanceVector, Variant

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_COMPUTE = 3

# flag/file problems exit 2; blown limits during the run exit 3
_COMPUTE_ERRORS = (
    ResourceLimitError,
    SigmaOverflowError,
    TooLargeError,
    ExperimentCellError,
)

F_CHOICES = "product, mean, source, max, path-sum, path-prod, matrix:<path>"


def _parse_f(selector: str, g: Graph) -> RelevanceFunction:
    if selector.startswith("matrix:"):
        return io_formats.load_f_matrix_csv(selector[len("matrix:"):], g)
    try:
        variant = Variant(selector)
    except ValueError:
        raise ValueError(f"unknown f selector {selector!r}; pick one of {F_CHOICES}") from None
    if variant is Variant.MATRIX:
        raise ValueError("matrix f needs a file: use matrix:<path>")
    return RelevanceFunction(variant)


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise ValueError(f"--workers must be at least 1, got {workers}")


def _print_top10(rep: CentralityReport) -> None:
    print(f"{rep.metric.value} (f={rep.f_label}, relevance={rep.relevance_source})")
    top = rep.values
    if len(top) > 10:  # only the values at least the tenth largest, in index order
        top = top[top >= np.partition(top, len(top) - 10)[len(top) - 10]]
    top = top[np.argsort(-top, kind="stable")[:10]].tolist()  # rep.ranking's order
    for pos, (element, value) in enumerate(zip(rep.ranking, top), start=1):
        name = element if rep.kind == "vertex" else f"{element[0]} -- {element[1]}"
        print(f"  {pos:2d}. {name}  {value:.6g}")


def _oracle_reports(g, R, f, wanted: list[str], relevance_source: str):
    """Same report shapes as the fast path, values from brute enumeration."""
    from .oracle import all_pairs_shortest_paths, brute_betweenness, brute_degree, brute_harmonic

    pair_paths = None
    if any(m in wanted for m in ("harmonic", "betweenness", "edge-betweenness")):
        pair_paths = all_pairs_shortest_paths(g)
    reports = []
    kw = dict(f=f, relevance_source=relevance_source, weighted=g.weighted)
    if "degree" in wanted:
        reports.append(
            _make_report(Metric.DEGREE, "vertex", g.labels, brute_degree(g, R, f), **kw)
        )
    if "harmonic" in wanted:
        vals = brute_harmonic(g, R, f, pair_paths=pair_paths)
        reports.append(_make_report(Metric.HARMONIC, "vertex", g.labels, vals, **kw))
    if "betweenness" in wanted or "edge-betweenness" in wanted:
        vb, eb = brute_betweenness(g, R, f, pair_paths=pair_paths)
        if "betweenness" in wanted:
            reports.append(
                _make_report(Metric.VERTEX_BETWEENNESS, "vertex", g.labels, vb, **kw)
            )
        if "edge-betweenness" in wanted:
            reports.append(_make_report(
                Metric.EDGE_BETWEENNESS, "edge", g.edge_ids, eb, **kw))
    return reports


def cmd_compute(args) -> int:
    _check_workers(args.workers)
    # labels are interned a chunk of the file at a time
    g = build_graph_chunks(io_formats.load_edge_chunks(args.edges))
    if args.relevance:
        R = io_formats.load_relevance_csv(args.relevance, g)
        relevance_source = os.path.basename(args.relevance)
    else:
        R = RelevanceVector.ones(g.vertex_count)
        relevance_source = "uniform"
    f = _parse_f(args.f, g)

    wanted = (
        ["degree", "harmonic", "betweenness", "edge-betweenness"]
        if args.metric == "all"
        else [args.metric]
    )
    if f.variant.is_path and "degree" in wanted:
        if args.metric == "degree":
            raise PathVariantNotApplicableError(
                f"{f.label} has no per-edge endpoint value; degree is undefined"
            )
        print(f"note: skipping degree, {f.label} needs a path", file=sys.stderr)
        wanted.remove("degree")

    if args.engine == "oracle":
        reports = _oracle_reports(g, R, f, wanted, relevance_source)
    else:
        reports = []
        if "degree" in wanted:
            reports.append(degree_centrality(g, R, f, relevance_source=relevance_source))
        betweenness = "betweenness" in wanted or "edge-betweenness" in wanted
        if "harmonic" in wanted or betweenness:
            hrep, vrep, erep = _path_reports(
                g, R, f, args.workers, relevance_source,
                harmonic="harmonic" in wanted, betweenness=betweenness,
            )
            reports += [
                rep for name, rep in (
                    ("harmonic", hrep), ("betweenness", vrep), ("edge-betweenness", erep)
                ) if name in wanted
            ]

    for rep in reports:
        _print_top10(rep)

    if args.out:
        doc = io_formats.build_result_document(g, reports, os.path.basename(args.edges))
        if args.format == "json":
            # each piece goes to the file as it comes: no whole-document copy
            pieces = io_formats.results_json_pieces(doc)
            with open(args.out, "w", encoding="ascii", newline="") as fh:
                fh.writelines(pieces)
        elif args.format == "csv":
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                io_formats.write_results_csv(doc, fh)
        else:  # dot
            vrep = next((r for r in reports if r.kind == "vertex"), None)
            erep = next((r for r in reports if r.kind == "edge"), None)
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(io_formats.export_dot(g, vrep, erep))
    return EXIT_OK


def cmd_generate(args) -> int:
    from .generators import GeneratorConfig, assign_relevance, ring_lattice, watts_strogatz

    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    cfg = GeneratorConfig(n=args.n, d=args.d, p=args.p, r=args.r, seed=2 * args.seed)
    g = ring_lattice(args.n, args.d) if args.kind == "ring" else watts_strogatz(cfg)
    R = assign_relevance(args.n, args.d, args.r, 2 * args.seed + 1)
    io_formats.save_edge_csv(g, f"{args.out_prefix}.edges.csv")
    io_formats.save_relevance_csv(R, g, f"{args.out_prefix}.relevance.csv")
    print(f"wrote {args.out_prefix}.edges.csv and {args.out_prefix}.relevance.csv")
    return EXIT_OK


def _print_progress(done: int, total: int, cell, seconds: float) -> None:
    print(f"[{done}/{total}] {cell.cell_id} {seconds:.3f} s", file=sys.stderr, flush=True)


def cmd_experiment(args) -> int:
    from .experiments import ExperimentGrid, run_grid, write_correlation_csv

    _check_workers(args.workers)
    grid = ExperimentGrid.from_json(args.grid) if args.grid else ExperimentGrid()
    records = run_grid(grid, workers=args.workers, progress=_print_progress)
    write_correlation_csv(records, args.out)
    print(f"wrote {len(records)} correlation rows to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="relcentral",
        description="Centrality metrics for networks whose vertices carry intrinsic relevance.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("compute", help="compute metrics on an edge CSV")
    pc.add_argument("edges", help="edge CSV (source,target[,weight])")
    pc.add_argument("--relevance", help="relevance CSV (vertex,relevance); omit for classic metrics")
    pc.add_argument("--f", default="product", help=f"combination function: {F_CHOICES}")
    pc.add_argument(
        "--metric",
        default="all",
        choices=["degree", "harmonic", "betweenness", "edge-betweenness", "all"],
    )
    pc.add_argument("--out", help="write results to this path")
    pc.add_argument("--format", default="json", choices=["json", "csv", "dot"])
    pc.add_argument("--engine", default="fast", choices=["fast", "oracle"])
    pc.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    pc.set_defaults(fn=cmd_compute)

    pg = sub.add_parser("generate", help="write a synthetic network and relevance file")
    pg.add_argument("--kind", required=True, choices=["ring", "ws"])
    pg.add_argument("--n", type=int, required=True)
    pg.add_argument("--d", type=int, required=True)
    pg.add_argument("--p", type=float, default=0.0, help="rewiring probability (ws only)")
    pg.add_argument("--r", type=float, default=0.0, help="fraction of vertices with random relevance")
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("--out-prefix", required=True)
    pg.set_defaults(fn=cmd_generate)

    pe = sub.add_parser("experiment", help="run the correlation grid")
    pe.add_argument("--grid", help="JSON grid config; omit for the default study grid")
    pe.add_argument("--out", required=True, help="correlation CSV output path")
    pe.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    pe.set_defaults(fn=cmd_experiment)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except _COMPUTE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except (RelcentralError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
