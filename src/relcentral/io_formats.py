"""File interchange: edge/relevance/matrix CSV, result JSON, DOT export.

Edge files carry a ``source,target,weight`` header (weight column
optional); a row with an empty target declares a bare vertex, which is
how isolated vertices enter a graph. Relevance files carry
``vertex,relevance`` and default every unlisted vertex to 1. All files
are UTF-8 and floats accept what Python's ``float`` accepts.

Edge, relevance and matrix files are read by columns, without a list or
tuple per row. A file that ``csv.reader`` would read as the
``str.split(",")`` of each line, every line as wide as the header (no
quote, no NUL, no \\r outside \\r\\n, no line over
``csv.field_size_limit()``), is split into cells in one pass; column j
is every width-th cell from j. Lines are split at \\n alone, never at the
other line breaks of ``str.splitlines``, which csv keeps inside a
field. Any other file, quoted
labels included, goes through ``csv.reader``, whose errors are reported
as a MalformedRowError at its line. Either way the cells are stripped
column by column, and each row check (field count, missing source,
weight without target, unparsable or non-positive value, unknown or
repeated vertex, matrix cell) is a mask over all rows. The first faulty
line decides the error, and within a line the checks apply in the
order just listed, so messages and line numbers are those of a
row-by-row reader. Line numbers count CSV records, blank rows included.

Result JSON is written without the json module's pure-Python indent
encoder: tables of floats, lists of labels, edge rows and edge ranking
pairs are formatted by columns with one join each, every float cut to
12 significant digits once; the bytes equal
``json.dumps(..., sort_keys=True, indent=2)`` of the rounded document.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from itertools import chain, compress, islice, repeat
from operator import itemgetter

import numpy as np

from . import __version__
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
    "load_edge_columns",
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


# --- CSV tables, read by columns ---


# the separators of an unquoted CSV line: ',' and '\n', as UTF-8 bytes
_COMMA, _NEWLINE = 44, 10


def _plain_cells(text: str) -> tuple[int, list[str]] | None:
    """The field count of the first line of ``text`` and the cells of all
    its lines in one list, when ``csv.reader`` would read every line as
    its ``str.split(",")`` and all lines have that field count; else None.

    That holds when the text has no quote, no NUL and no \\r outside
    \\r\\n, every line has the first line's number of commas, and no line
    is longer than ``csv.field_size_limit()`` (counted in UTF-8 bytes,
    never fewer than its characters). Lines end at \\n alone: csv keeps
    \\x0b, \\x0c, \\x1c-\\x1e, \\x85 and \\u2028 inside a field, where
    ``str.splitlines`` would break.
    """
    if not text or '"' in text or "\0" in text:
        return None
    if "\r" in text:
        if text.count("\r") != text.count("\r\n"):
            return None
        text = text.replace("\r\n", "\n")
    if not text.endswith("\n"):
        text += "\n"
    width = text.count(",", 0, text.index("\n")) + 1
    b = np.frombuffer(text.encode(), np.uint8)
    sep = np.flatnonzero((b == _COMMA) | (b == _NEWLINE))
    if len(sep) % width:
        return None
    pattern = np.full(width, _COMMA, np.uint8)
    pattern[-1] = _NEWLINE
    if not (b[sep].reshape(-1, width) == pattern).all():
        return None
    if np.diff(sep[width - 1::width], prepend=-1).max() - 1 > csv.field_size_limit():
        return None
    del b, sep  # freed before the cells are made
    return width, text[:-1].replace("\n", ",").split(",")


def _read_columns(path, check_header, fits) -> tuple[list[str], list[list[str]], int, int | None]:
    """Read a CSV file by columns: its header, the stripped cells of its
    data rows as one column per header field, the number of data rows,
    and the field count of the row that ends the columns (None if none
    does). Row i of the columns is record i + 2.

    ``check_header`` gets the header (None for an empty file) before any
    data row is read, and raises if it is wrong. Rows shorter than the
    header are padded with empty cells; the first row of another length
    that ``fits(row, width)`` rejects ends the columns. A text that
    ``_plain_cells`` splits is read without per-row objects; any other
    goes through ``csv.reader``, whose errors become a MalformedRowError
    at its line.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        text = fh.read()
    plain = _plain_cells(text)
    if plain is not None:
        del text
        width, cells = plain
        header = cells[:width]
        check_header(header)
        columns = [list(map(str.strip, cells[j::width])) for j in range(width, 2 * width)]
        return header, columns, len(columns[0]), None
    reader = csv.reader(io.StringIO(text, newline=""))
    del text
    try:
        header = next(reader, None)
        check_header(header)
        rows = list(reader)
    except csv.Error as exc:
        raise MalformedRowError(path, reader.line_num, str(exc)) from None
    columns, end = _columns(rows, len(header), fits)
    return header, columns, len(rows), len(rows[end]) if end < len(rows) else None


def _header_check(path, headers: tuple[list[str], ...], expected: str):
    """check_header for a file whose header, stripped and lowercased, is one of ``headers``."""
    def check(header: list[str] | None) -> None:
        if header is None:
            raise MalformedRowError(path, 1, "empty file, expected a header row")
        if [c.strip().lower() for c in header] not in headers:
            raise MalformedRowError(
                path, 1, f"expected header {expected}, got {','.join(header)!r}"
            )
    return check


def _columns(rows: list[list[str]], width: int, fits) -> tuple[list[list[str]], int]:
    """Stripped cells of ``rows`` as ``width`` columns, and where they end.

    Shorter rows are padded with empty cells. A row of another length
    that ``fits(row, width)`` rejects ends the columns; the index of the
    first such row is returned (len(rows) if none). Edits ``rows`` in place.
    """
    end = len(rows)
    lens = np.fromiter(map(len, rows), np.intp, end)
    for i in np.flatnonzero(lens != width).tolist():
        row = rows[i]
        if not fits(row, width):
            end = i
            break
        rows[i] = row + [""] * (width - len(row))
    return [list(map(str.strip, map(itemgetter(j), islice(rows, end)))) for j in range(width)], end


def _blank(row: list[str]) -> bool:
    return not any(map(str.strip, row))


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


def load_edge_columns(path) -> tuple[list[str], list, list | None]:
    """The records of an edge file as columns (source, target, weight),
    the form :func:`graph.build_graph_columns` takes: a None target is a
    bare vertex, a None weight column or weight is 1."""
    check = _header_check(
        path, (["source", "target", "weight"], ["source", "target"]), "source,target[,weight]"
    )
    _, cols, _, wide = _read_columns(
        path, check, lambda row, width: len(row) < width or _blank(row)
    )
    src, tgt = cols[0], cols[1]
    end = len(src)
    wtxt = cols[2] if len(cols) == 3 else [""] * end
    has_s, has_t = _filled(src), _filled(tgt)
    has_w = _filled(wtxt) if len(cols) == 3 else np.zeros(end, dtype=bool)
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
    if wide is not None:
        raise MalformedRowError(path, end + 2, f"too many fields ({wide})")
    if has_s.all() and has_t.all() and len(weights) in (0, end):  # every row a record alike
        return src, tgt, weights or None
    # a row without a source is blank; one without a target a bare vertex
    w = iter(weights)
    weight = [next(w) if x else None for x in compress(weighted.tolist(), has_s)]
    return (list(compress(src, has_s)), [t or None for t in compress(tgt, has_s)],
            weight if weights else None)


def load_edge_csv(path) -> list[tuple]:
    """Edge records plus bare-vertex records, ready for build_graph:
    ``(source, target, weight)``, ``(source, target)`` where the weight
    is empty, ``(source,)`` for a bare vertex."""
    src, tgt, weight = load_edge_columns(path)
    if None not in tgt and (weight is None or None not in weight):
        return list(zip(src, tgt) if weight is None else zip(src, tgt, weight))
    return [(s,) if t is None else (s, t) if x is None else (s, t, x)
            for s, t, x in zip(src, tgt, weight or repeat(None))]


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
    check = _header_check(path, (["vertex", "relevance"],), "vertex,relevance")
    _, (labels, vtxt), _, wrong = _read_columns(path, check, lambda row, width: _blank(row))
    end = len(labels)
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
    if wrong is not None:
        raise MalformedRowError(path, end + 2, f"expected 2 fields, got {wrong}")
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


def _float_cells(cells: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """float() of every cell, 0.0 where float rejects it, and a mask of those cells."""
    try:
        return np.fromiter(map(float, cells), np.float64, len(cells)), np.zeros(len(cells), bool)
    except ValueError:
        values, bad = np.zeros(len(cells)), np.zeros(len(cells), bool)
        for i, text in enumerate(cells):
            try:
                values[i] = float(text)
            except ValueError:
                bad[i] = True
        return values, bad


def load_f_matrix_csv(path, g: Graph) -> RelevanceFunction:
    """Dense F table with vertex labels on the header row and first column.

    The first faulty row decides the error; within a row the checks
    apply in the order field count, row label, then each cell in column
    order (a bad float, a nonzero diagonal or a negative entry).
    """
    n = g.vertex_count

    def check_header(header: list[str] | None) -> None:
        if header is None:
            raise MalformedRowError(path, 1, "empty file, expected a label header")
        col_labels = [c.strip() for c in header[1:]]
        if len(col_labels) != n or sorted(col_labels) != sorted(g.labels):
            raise MatrixShapeMismatchError(
                f"{path}: column labels do not match the graph's {n} vertices"
            )

    header, (labels, *columns), n_rows, wrong = _read_columns(
        path, check_header, lambda row, width: False
    )
    if n_rows != n:
        raise MatrixShapeMismatchError(f"{path}: expected {n} data rows, found {n_rows}")
    end = len(labels)
    col_labels = [c.strip() for c in header[1:]]
    col = np.fromiter(map(g._index.__getitem__, col_labels), np.intp, n)
    row = np.fromiter(map(g._index.get, labels, repeat(-1)), np.intp, end)
    unknown = row < 0
    duplicate = np.ones(end, dtype=bool)
    duplicate[np.unique(row, return_index=True)[1]] = False
    # one float pass over the cells, column by column; then row-major views
    values, bad = _float_cells(list(chain.from_iterable(columns)))
    values, bad = values.reshape(n, end).T, bad.reshape(n, end).T
    diagonal = row[:, None] == col
    nonzero_diagonal = diagonal & (values != 0.0)
    negative = ~diagonal & (values < 0.0)
    faulty = bad | nonzero_diagonal | negative  # a bad cell holds 0.0

    k = _first(unknown | duplicate | faulty.any(axis=1))
    if k < end:
        line_no, label = k + 2, labels[k]
        if unknown[k]:
            raise MatrixShapeMismatchError(
                f"{path}:{line_no}: row label {label!r} is not in the graph"
            )
        if duplicate[k]:
            raise MalformedRowError(path, line_no, f"duplicate row label {label!r}")
        j = _first(faulty[k])
        val = float(values[k, j])
        if bad[k, j]:
            raise MalformedRowError(path, line_no, f"bad matrix entry {columns[j][k]!r}")
        if nonzero_diagonal[k, j]:
            raise NonzeroDiagonalError(
                f"{path}:{line_no}: diagonal entry F[{label}][{label}] must be 0, got {val:g}"
            )
        raise MalformedRowError(
            path, line_no, f"negative entry {val:g} at column {col_labels[j]!r}"
        )
    if wrong is not None:
        raise MalformedRowError(path, end + 2, f"expected {n + 1} fields, got {wrong}")
    F = np.zeros((n, n))
    F[row[:, None], col] = values
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
        "version": __version__,
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
    if kinds != {float}:
        return None
    a = np.abs(values)
    if not np.isfinite(a).all():
        return None
    # "{:.12g}" writes what float.__repr__ writes for the 12-digit value,
    # except ".0" on whole numbers and in two bands, which keep the float
    # and repr round trip: exponents 12 to 15, which repr writes without
    # one, and subnormals, whose repr can be shorter (both with a margin)
    texts = list(map("{:.12g}".format, values))
    for i in np.flatnonzero(((a >= 9e11) & (a < 1e16)) | ((a > 0) & (a < 1e-307))).tolist():
        texts[i] = float.__repr__(float(texts[i]))
    return [t if "." in t or "e" in t else t + ".0" for t in texts]


def _json_rows(rows: list, pad: str) -> list[str] | None:
    """JSON texts, at indent ``pad``, of rows that are all dicts with the
    same string keys or all lists of one length, written by columns with
    one join (the edge tables and edge ranking pairs); None unless every
    column is all strings or all finite floats."""
    kinds, first = set(map(type, rows)), rows[0]
    if kinds == {dict} and first and set(map(type, first)) == {str} \
            and all(map(first.keys().__eq__, map(dict.keys, rows))):
        keys = sorted(first)
        # str.format template: literal braces doubled
        open_, close = "{{", "}}"
        lines = [_json_str(k).replace("{", "{{").replace("}", "}}") + ": {}" for k in keys]
    elif kinds == {list} and first and set(map(len, rows)) == {len(first)}:
        keys = range(len(first))
        open_, close = "[", "]"
        lines = ["{}"] * len(first)
    else:
        return None
    columns = [_json_flat(list(map(itemgetter(k), rows))) for k in keys]
    if None in columns:
        return None
    inner = pad + "  "
    template = open_ + "\n" + inner + (",\n" + inner).join(lines) + "\n" + pad + close
    return list(map(template.format, *columns))


def _json(x, pad: str) -> str:
    """``x`` as ``json.dumps(x, sort_keys=True, indent=2)`` writes it at
    indent ``pad``, each float cut to 12 significant digits first.
    Containers of strings or of finite floats (the vertex tables and the
    ranking lists) and lists of such rows (the edge tables and edge
    ranking pairs) are written with one join; anything else value by
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
        items = _json_flat(x) or _json_rows(x, inner) or [_json(v, inner) for v in x]
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
