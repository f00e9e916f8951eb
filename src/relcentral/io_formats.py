"""File interchange: edge/relevance/matrix CSV, result JSON, DOT export.

Edge files carry a ``source,target,weight`` header (weight column
optional); a row with an empty target declares a bare vertex, which is
how isolated vertices enter a graph. Relevance files carry
``vertex,relevance`` and default every unlisted vertex to 1. All files
are UTF-8 and floats accept what Python's ``float`` accepts.

Edge and relevance files are read by columns: one ``csv.reader`` pass
collects the rows, the cells are stripped column by column, and each
row check (field count, missing source, weight without target,
unparsable or non-positive value, unknown or repeated vertex) is a mask
over all rows. The first faulty line decides the error, and within a
line the checks apply in the order just listed, so messages and line
numbers are those of a row-by-row reader. Line numbers count CSV
records, blank rows included.

Result JSON is written without the json module's pure-Python indent
encoder: tables of floats and lists of labels are formatted with one
join each, every float cut to 12 significant digits once; the bytes
equal ``json.dumps(..., sort_keys=True, indent=2)`` of the rounded
document.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from importlib import metadata as importlib_metadata
from itertools import compress, islice, repeat
from operator import itemgetter

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
    except importlib_metadata.PackageNotFoundError:
        from . import __version__  # run from source: the package's own version

        return __version__


# --- CSV tables, read by columns ---


def _read_rows(
    path, headers: tuple[list[str], ...], expected: str
) -> tuple[int, list[list[str]]]:
    """Header width and data rows of a CSV file; row i is record i + 2."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise MalformedRowError(path, 1, "empty file, expected a header row")
        if [c.strip().lower() for c in header] not in headers:
            raise MalformedRowError(
                path, 1, f"expected header {expected}, got {','.join(header)!r}"
            )
        return len(header), list(reader)


def _columns(rows: list[list[str]], width: int, fits) -> tuple[list[list[str]], int]:
    """Stripped cells of ``rows`` as ``width`` columns, and where they end.

    Shorter rows are padded with empty cells. A row whose field count
    ``fits`` rejects ends the columns unless it is blank; the index of
    the first such row that is not blank is returned (len(rows) if
    none). Edits ``rows`` in place.
    """
    end = len(rows)
    lens = np.fromiter(map(len, rows), np.intp, end)
    for i in np.flatnonzero(lens != width).tolist():
        row = rows[i]
        if not fits(len(row)) and any(map(str.strip, row)):
            end = i
            break
        rows[i] = row + [""] * (width - len(row))
    return [list(map(str.strip, map(itemgetter(j), islice(rows, end)))) for j in range(width)], end


def _filled(column: list[str]) -> np.ndarray:
    if all(column):
        return np.ones(len(column), dtype=bool)
    return np.fromiter(map(bool, column), bool, len(column))


def _floats(cells: list[str]) -> tuple[list[float], int]:
    """float() of each cell up to the first it rejects, and that cell's position."""
    try:
        return list(map(float, cells)), len(cells)
    except ValueError:
        values = []
        for text in cells:
            try:
                values.append(float(text))
            except ValueError:
                break
        return values, len(values)


def _first(mask: np.ndarray) -> int:
    """Index of the first True in ``mask``, or its length."""
    return int(np.argmax(mask)) if mask.any() else len(mask)


# --- edges ---


def load_edge_csv(path) -> list[tuple]:
    """Edge records plus bare-vertex records, ready for build_graph."""
    width, rows = _read_rows(
        path, (["source", "target", "weight"], ["source", "target"]), "source,target[,weight]"
    )
    cols, end = _columns(rows, width, lambda n: n <= width)
    src, tgt = cols[0], cols[1]
    wtxt = cols[2] if width == 3 else [""] * end
    has_s, has_t, has_w = _filled(src), _filled(tgt), _filled(wtxt)
    # per row, in the order the checks apply: source, then target, then weight
    no_source = ~has_s & (has_t | has_w)
    orphan_weight = has_s & ~has_t & has_w
    weighted = has_s & has_t & has_w
    at = np.flatnonzero(weighted)
    weights, n_ok = _floats(list(compress(wtxt, weighted)))
    bad_weight = np.zeros(end, dtype=bool)
    bad_weight[at[n_ok:n_ok + 1]] = True

    k = _first(no_source | orphan_weight | bad_weight)
    if k < end:
        if no_source[k]:
            raise MalformedRowError(path, k + 2, "missing source vertex")
        if orphan_weight[k]:
            raise MalformedRowError(path, k + 2, "weight given without a target vertex")
        raise MalformedRowError(path, k + 2, f"bad weight {wtxt[k]!r}")
    if end < len(rows):
        raise MalformedRowError(path, end + 2, f"too many fields ({len(rows[end])})")
    del rows  # the row lists go before the records are made
    if has_s.all() and has_t.all():  # every row an edge
        if len(weights) == end:
            return list(zip(src, tgt, weights))
        if not weights:
            return list(zip(src, tgt))
    w = iter(weights)
    return [(s, t, next(w)) if x else (s, t) if t else (s,)
            for s, t, x in zip(src, tgt, wtxt) if s]


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
    _, rows = _read_rows(path, (["vertex", "relevance"],), "vertex,relevance")
    (labels, vtxt), end = _columns(rows, 2, lambda n: n in (0, 2))
    listed = _filled(labels) | _filled(vtxt)
    idx = np.fromiter(map(g._index.get, labels, repeat(-1)), np.intp, end)
    unknown = listed & (idx < 0)
    known = np.flatnonzero(listed & (idx >= 0))
    duplicate = np.zeros(end, dtype=bool)
    duplicate[known] = True
    duplicate[known[np.unique(idx[known], return_index=True)[1]]] = False
    at = np.flatnonzero(listed)
    values, n_ok = _floats(list(compress(vtxt, listed)))
    bad_value = np.zeros(end, dtype=bool)
    bad_value[at[n_ok:n_ok + 1]] = True
    x = np.ones(end)
    x[at[:n_ok]] = values
    not_positive = ~(np.isfinite(x) & (x > 0.0))

    # per row, in the order the checks apply
    k = _first(unknown | duplicate | bad_value | not_positive)
    if k < end:
        if unknown[k]:
            raise UnknownVertexInRelevanceError(
                f"{path}:{k + 2}: vertex {labels[k]!r} is not in the graph"
            )
        if duplicate[k]:
            raise MalformedRowError(path, k + 2, f"duplicate vertex {labels[k]!r}")
        if bad_value[k]:
            raise MalformedRowError(path, k + 2, f"bad relevance {vtxt[k]!r}")
        raise MalformedRowError(
            path, k + 2, f"relevance must be positive and finite, got {vtxt[k]}"
        )
    if end < len(rows):
        raise MalformedRowError(path, end + 2, f"expected 2 fields, got {len(rows[end])}")
    R = np.ones(g.vertex_count)
    R[idx[at]] = values
    return RelevanceVector(R)


def save_relevance_csv(R: RelevanceVector, g: Graph, path) -> None:
    if len(R) != g.vertex_count:
        raise ValueError("relevance length does not match the graph")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["vertex", "relevance"])
        for i, lab in enumerate(g.labels):
            w.writerow([lab, repr(R[i])])


# --- matrix f ---


def _float(path, line_no: int, text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise MalformedRowError(path, line_no, f"bad {what} {text!r}") from None


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
        values = np.asarray(rep.values, dtype=np.float64).tolist()
        if rep.kind == "vertex":
            vertex_tables[name] = dict(zip(rep.ids, values))
            rankings["vertices"][name] = list(rep.ranking)
        else:
            edge_tables[name] = [
                {"source": a, "target": b, "value": v} for (a, b), v in zip(rep.ids, values)
            ]
            rankings["edges"][name] = [[a, b] for a, b in rep.ranking]
    return ResultDocument(meta, vertex_tables, edge_tables, rankings)


_json_str = json.encoder.encode_basestring_ascii


def _json_float(x: float) -> str:
    """``x`` cut to 12 significant digits, as the json module writes it."""
    x = float(f"{x:.12g}")
    if x != x:
        return "NaN"
    if x == np.inf:
        return "Infinity"
    if x == -np.inf:
        return "-Infinity"
    return float.__repr__(x)


def _json_flat(values: list) -> list[str] | None:
    """JSON texts of values that are all strings or all finite floats,
    in one pass each; None for any other mix."""
    kinds = set(map(type, values))
    if kinds == {str}:
        return list(map(_json_str, values))
    if kinds == {float} and np.isfinite(values).all():
        return list(map(float.__repr__, map(float, map("{:.12g}".format, values))))
    return None


def _json(x, pad: str) -> str:
    """``x`` as ``json.dumps(x, sort_keys=True, indent=2)`` writes it at
    indent ``pad``, each float cut to 12 significant digits first.
    Containers of strings or of finite floats (the vertex tables and the
    ranking lists) are written with one join; anything else value by
    value. Dict keys must be strings."""
    if isinstance(x, str):
        return _json_str(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        return _json_float(x)
    inner = pad + "  "
    if isinstance(x, (list, tuple)):
        if not x:
            return "[]"
        items = _json_flat(x) or [_json(v, inner) for v in x]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    if isinstance(x, dict):
        if not x:
            return "{}"
        keys = sorted(x)
        if set(map(type, keys)) != {str} and not all(isinstance(k, str) for k in keys):
            raise TypeError("result document keys must be strings")
        values = list(map(x.__getitem__, keys))
        items = _json_flat(values) or [_json(v, inner) for v in values]
        body = (",\n" + inner).join(map("{}: {}".format, map(_json_str, keys), items))
        return "{\n" + inner + body + "\n" + pad + "}"
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def write_results_json(doc: ResultDocument) -> bytes:
    """Stable bytes: sorted keys, floats cut to 12 significant digits,
    laid out as ``json.dumps(..., sort_keys=True, indent=2)`` lays it out."""
    payload = {
        "metadata": doc.metadata,
        "vertices": doc.vertex_tables,
        "edges": doc.edge_tables,
        "rankings": doc.rankings,
    }
    return (_json(payload, "") + "\n").encode("ascii")


def results_csv_text(doc: ResultDocument) -> str:
    """Flat CSV: metric,source,target,value; vertex rows leave target empty.
    Labels are quoted where they hold a comma, a quote or a line break."""
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(["metric", "source", "target", "value"])
    for metric in sorted(doc.vertex_tables):
        w.writerows([metric, label, "", f"{val:.12g}"]
                    for label, val in doc.vertex_tables[metric].items())
    for metric in sorted(doc.edge_tables):
        w.writerows([metric, row["source"], row["target"], f"{row['value']:.12g}"]
                    for row in doc.edge_tables[metric])
    return out.getvalue()


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
