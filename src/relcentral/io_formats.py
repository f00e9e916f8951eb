"""File interchange: edge/relevance/matrix CSV, result JSON, DOT export.

Edge files carry a ``source,target,weight`` header (weight column
optional); a row with an empty target declares a bare vertex, which is
how isolated vertices enter a graph. Relevance files carry
``vertex,relevance`` and default every unlisted vertex to 1. All files
are UTF-8 and floats accept scientific notation.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from importlib import metadata as importlib_metadata

import numpy as np

from .centrality import CentralityReport
from .errors import (
    MalformedRowError,
    MatrixShapeMismatchError,
    NonzeroDiagonalError,
    UnknownVertexInRelevanceError,
)
from .graph import Graph
from .relevance import RelevanceFunction, RelevanceVector, matrix_function

__all__ = [
    "load_edge_csv",
    "save_edge_csv",
    "load_relevance_csv",
    "save_relevance_csv",
    "load_f_matrix_csv",
    "ResultDocument",
    "build_result_document",
    "write_results_json",
    "results_csv_text",
    "export_dot",
]


def _tool_version() -> str:
    try:
        return importlib_metadata.version("relcentral")
    except importlib_metadata.PackageNotFoundError:  # pragma: no cover
        return "0+unknown"


def _float(path, line_no: int, text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise MalformedRowError(path, line_no, f"bad {what} {text!r}") from None


# --- edges ---


def load_edge_csv(path) -> list[tuple]:
    """Edge records plus bare-vertex records, ready for build_graph."""
    records: list[tuple] = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise MalformedRowError(path, 1, "empty file, expected a header row")
        cols = [c.strip().lower() for c in header]
        if cols not in (["source", "target", "weight"], ["source", "target"]):
            raise MalformedRowError(
                path, 1, f"expected header source,target[,weight], got {','.join(header)!r}"
            )
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            row = [c.strip() for c in row]
            if len(row) > len(cols):
                raise MalformedRowError(path, line_no, f"too many fields ({len(row)})")
            row += [""] * (3 - len(row))
            src, tgt, wtxt = row[0], row[1], row[2]
            if not src:
                raise MalformedRowError(path, line_no, "missing source vertex")
            if not tgt:
                if wtxt:
                    raise MalformedRowError(
                        path, line_no, "weight given without a target vertex"
                    )
                records.append((src,))
                continue
            if not wtxt:
                records.append((src, tgt))
            else:
                records.append((src, tgt, _float(path, line_no, wtxt, "weight")))
    return records


def save_edge_csv(g: Graph, path) -> None:
    """Inverse of load_edge_csv; bare rows preserve isolated vertices."""
    degree = np.bincount(np.concatenate(g.edge_endpoints), minlength=g.vertex_count)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["source", "target", "weight"])
        for a, b, wt in g.edge_records():
            w.writerow([a, b, repr(wt)])
        for i, lab in enumerate(g.labels):
            if degree[i] == 0:
                w.writerow([lab, "", ""])


# --- relevance ---


def load_relevance_csv(path, g: Graph) -> RelevanceVector:
    mapping: dict[str, float] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise MalformedRowError(path, 1, "empty file, expected a header row")
        if [c.strip().lower() for c in header] != ["vertex", "relevance"]:
            raise MalformedRowError(
                path, 1, f"expected header vertex,relevance, got {','.join(header)!r}"
            )
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != 2:
                raise MalformedRowError(path, line_no, f"expected 2 fields, got {len(row)}")
            label, vtxt = row[0].strip(), row[1].strip()
            if not g.has_vertex(label):
                raise UnknownVertexInRelevanceError(
                    f"{path}:{line_no}: vertex {label!r} is not in the graph"
                )
            if label in mapping:
                raise MalformedRowError(path, line_no, f"duplicate vertex {label!r}")
            val = _float(path, line_no, vtxt, "relevance")
            if not np.isfinite(val) or val <= 0.0:
                raise MalformedRowError(
                    path, line_no, f"relevance must be positive and finite, got {vtxt}"
                )
            mapping[label] = val
    return RelevanceVector.from_mapping(g, mapping)


def save_relevance_csv(R: RelevanceVector, g: Graph, path) -> None:
    if len(R) != g.vertex_count:
        raise ValueError("relevance length does not match the graph")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["vertex", "relevance"])
        for i, lab in enumerate(g.labels):
            w.writerow([lab, repr(R[i])])


# --- matrix f ---


def load_f_matrix_csv(path, g: Graph) -> RelevanceFunction:
    """Dense F table with vertex labels on the header row and first column."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise MalformedRowError(path, 1, "empty file, expected a label header")
    col_labels = [c.strip() for c in rows[0][1:]]
    n = g.vertex_count
    if len(col_labels) != n or sorted(col_labels) != sorted(g.labels):
        raise MatrixShapeMismatchError(
            f"{path}: column labels do not match the graph's {n} vertices"
        )
    if len(rows) - 1 != n:
        raise MatrixShapeMismatchError(
            f"{path}: expected {n} data rows, found {len(rows) - 1}"
        )
    F = np.zeros((n, n))
    seen: set[str] = set()
    for line_no, row in enumerate(rows[1:], start=2):
        if len(row) != n + 1:
            raise MalformedRowError(path, line_no, f"expected {n + 1} fields, got {len(row)}")
        row_label = row[0].strip()
        if not g.has_vertex(row_label):
            raise MatrixShapeMismatchError(
                f"{path}:{line_no}: row label {row_label!r} is not in the graph"
            )
        if row_label in seen:
            raise MalformedRowError(path, line_no, f"duplicate row label {row_label!r}")
        seen.add(row_label)
        i = g.index_of(row_label)
        for col_label, cell in zip(col_labels, row[1:]):
            val = _float(path, line_no, cell.strip(), "matrix entry")
            j = g.index_of(col_label)
            if i == j:
                if val != 0.0:
                    raise NonzeroDiagonalError(
                        f"{path}:{line_no}: diagonal entry F[{row_label}][{row_label}] "
                        f"must be 0, got {val:g}"
                    )
            elif val < 0.0:
                raise MalformedRowError(
                    path, line_no, f"negative entry {val:g} at column {col_label!r}"
                )
            F[i, j] = val
    return matrix_function(F)


# --- result documents ---


@dataclass
class ResultDocument:
    metadata: dict
    vertex_tables: dict[str, dict[str, float]]
    edge_tables: dict[str, list[dict]]
    rankings: dict


def build_result_document(
    g: Graph, reports: list[CentralityReport], graph_name: str
) -> ResultDocument:
    meta = {
        "tool": "relcentral",
        "version": _tool_version(),
        "graph": graph_name,
        "weighted": g.weighted,
        "f": reports[0].f_label if reports else "",
        "relevance": reports[0].relevance_source if reports else "",
    }
    vertex_tables: dict[str, dict[str, float]] = {}
    edge_tables: dict[str, list[dict]] = {}
    rankings: dict = {"vertices": {}, "edges": {}}
    for rep in reports:
        name = rep.metric.value
        if rep.kind == "vertex":
            vertex_tables[name] = {i: float(v) for i, v in zip(rep.ids, rep.values)}
            rankings["vertices"][name] = [i for i in rep.ranking]
        else:
            edge_tables[name] = [
                {"source": a, "target": b, "value": float(v)}
                for (a, b), v in zip(rep.ids, rep.values)
            ]
            rankings["edges"][name] = [[a, b] for a, b in rep.ranking]
    return ResultDocument(meta, vertex_tables, edge_tables, rankings)


def _round12(x):
    if isinstance(x, float):
        return float(f"{x:.12g}")
    if isinstance(x, dict):
        return {k: _round12(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_round12(v) for v in x]
    return x


def write_results_json(doc: ResultDocument) -> bytes:
    """Stable bytes: sorted keys, floats cut to 12 significant digits."""
    payload = {
        "metadata": doc.metadata,
        "vertices": doc.vertex_tables,
        "edges": doc.edge_tables,
        "rankings": doc.rankings,
    }
    text = json.dumps(_round12(payload), sort_keys=True, indent=2)
    return (text + "\n").encode("utf-8")


def results_csv_text(doc: ResultDocument) -> str:
    """Flat CSV: metric,source,target,value; vertex rows leave target empty."""
    lines = ["metric,source,target,value"]
    for metric in sorted(doc.vertex_tables):
        for label, val in doc.vertex_tables[metric].items():
            lines.append(f"{metric},{label},,{val:.12g}")
    for metric in sorted(doc.edge_tables):
        for row in doc.edge_tables[metric]:
            lines.append(f"{metric},{row['source']},{row['target']},{row['value']:.12g}")
    return "\n".join(lines) + "\n"


# --- DOT export ---


def _normalize(values: np.ndarray) -> np.ndarray:
    lo = float(values.min())
    hi = float(values.max())
    if hi == lo:
        return np.full(len(values), 0.5)
    return (values - lo) / (hi - lo)


def _quote(label: str) -> str:
    escaped = label.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return '"' + escaped + '"'


def export_dot(
    g: Graph,
    vertex_report: CentralityReport | None = None,
    edge_report: CentralityReport | None = None,
) -> str:
    """Graphviz text; node width tracks vertex value, edge color runs
    black (max) to cyan (min)."""
    lines = ["graph relcentral {", "  node [shape=circle, fixedsize=true];"]
    if vertex_report is not None:
        z = _normalize(vertex_report.values)
        for lab, zi in zip(g.labels, z):
            width = 0.3 + 1.2 * float(zi)
            lines.append(f"  {_quote(lab)} [width={width:.3f}];")
    else:
        for lab in g.labels:
            lines.append(f"  {_quote(lab)};")
    if edge_report is not None:
        z = _normalize(edge_report.values)
        for (a, b), zi in zip(edge_report.ids, z):
            c = round(255 * (1.0 - float(zi)))  # cyan fades out as value grows
            lines.append(
                f"  {_quote(a)} -- {_quote(b)} [color=\"#00{c:02x}{c:02x}\", penwidth={1.0 + 2.0 * float(zi):.3f}];"
            )
    else:
        for a, b in g.edge_labels():
            lines.append(f"  {_quote(a)} -- {_quote(b)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
