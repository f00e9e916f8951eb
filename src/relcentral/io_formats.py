"""File interchange: edge/relevance/matrix CSV, result JSON, DOT export.

Edge files carry a ``source,target,weight`` header (weight column
optional); a row with an empty target declares a bare vertex, which is
how isolated vertices enter a graph. Relevance files carry
``vertex,relevance`` and default every unlisted vertex to 1. All files
are UTF-8, a leading byte-order mark is skipped, and floats accept what
Python's ``float`` accepts.

Edge and relevance files are read a chunk of lines at a time (``CHUNK``
characters, cut after the last \\n), by columns, without a list or
tuple per row, and no string per cell outlives its chunk: the edge
reader yields each chunk's records to :func:`graph.build_graph_chunks`,
which interns its labels as it arrives, and the relevance reader enters
each chunk's values into its array. A chunk that ``csv.reader`` would
read as the ``str.split(",")`` of each line, every line as wide as the
header (no quote, no NUL, no \\r outside \\r\\n, no line over
``csv.field_size_limit()``), is split into cells in one pass; column j
is every width-th cell from j. Lines are split at \\n alone, never at
the other line breaks of ``str.splitlines``, which csv keeps inside a
field. From the first chunk that is not so, quoted labels included,
``csv.reader`` reads the rest of the file in batches of rows, and its
errors are reported as a MalformedRowError at its line. Either way the
cells are stripped column by column, a pass a split chunk skips when
its text is ASCII with no whitespace but its line breaks; and each row
check (field count, missing source, weight without target, unparsable
or non-positive value, unknown or repeated vertex) is a mask over the
rows of a chunk. The first faulty line decides the error, and within a
line the checks apply in the order just listed, so messages and line
numbers are those of a row-by-row reader; every row of an edge file is
checked before any graph check (self-loop, weight, duplicate), whose
fault names its record's line too. A matrix file, as wide as it is
long, is read by ``csv.reader`` a row at a time, each row checked as it
arrives (see :func:`load_f_matrix_csv`). Line numbers count CSV
records, blank rows included.

Integer labels take a path of their own. When every source and target
cell of a split edge chunk is a canonical decimal integer (digits only,
no leading zero but in ``0`` itself, at most 18 digits, so ``str`` of
the value gives the cell back), the label values of those two columns
are read from the chunk's UTF-8 bytes with numpy as int64 arrays. A
chunk with a weight column is also split once as text for its weights,
parsed with ``float`` as before; that split makes short-lived strings
for the label cells too, which are dropped unread. The graph builder
numbers the values through a table indexed by value (see
``graph._Interner``), and a graph whose labels all came so keeps their
values and that table. For such a graph the relevance reader reads the
``vertex`` values of a split chunk from its bytes the same way (the
relevance cells come from one split of the chunk's text, as above), and
``Graph.indices_of`` finds their indices through the table, with no
label dict. Either
reader, from the first chunk that is not so (a quoted or non-canonical
cell, say), reads every chunk of the rest of the file as strings.

A result document is its metadata, its reports and the graph they are
of, and the writers work by index. The JSON writer knows the result's
one layout (keys ``edges``, ``metadata``, ``rankings``, ``vertices``;
metric names sorted) and makes the JSON text of each vertex label once
per document. Vertex tables follow the graph's ``label_order``,
rankings a report's ``order``, and edge tables and edge rankings the
graph's ``edge_endpoints``. Each table is joined a piece at a time,
every float cut to 12 significant digits once, by one ``%`` call per
piece, and an edge table's rows are filled by one more; the bytes equal
``json.dumps(..., sort_keys=True, indent=2)`` of the same result as
nested dicts and lists. A non-finite value, or a report of another
graph, is refused. The text comes in pieces of at most ``_PIECE`` table
items, which the command line writes to its file as they come, so no
copy of the whole text is held; the CSV result is written row by row
the same way, its labels taken by index, its floats made by the same
``%`` call.
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
    DuplicateEdgeError,
    MalformedRowError,
    MatrixShapeMismatchError,
    NonPositiveWeightError,
    NonzeroDiagonalError,
    SelfLoopError,
    UnknownVertexInRelevanceError,
)
from .graph import Graph, build_graph_chunks
from .relevance import RelevanceFunction, RelevanceVector, matrix_function

__all__ = [
    "load_edge_graph",
    "load_edge_chunks",
    "load_edge_csv",
    "save_edge_csv",
    "load_relevance_csv",
    "save_relevance_csv",
    "load_f_matrix_csv",
    "ResultDocument",
    "build_result_document",
    "results_json_pieces",
    "write_results_json",
    "write_results_csv",
    "export_dot",
]


# --- CSV tables, read by columns ---


# characters of text read at a time; a chunk is cut after its last \n
CHUNK = 1 << 16

# the separators of an unquoted CSV line: ',' and '\n', as UTF-8 bytes
_COMMA, _NEWLINE = 44, 10

# the whitespace that str.strip removes and a plain chunk's ASCII text may
# hold inside a cell (not \n, which ends its lines, nor \r, only in \r\n)
_ASCII_SPACE = " \t\x0b\x0c\x1c\x1d\x1e\x1f"

# the longest integer label read from bytes: 18 digits fit an int64
_INT_DIGITS = 18


def _plain_cells(text: str, width: int | None = None
                 ) -> tuple[int, str, np.ndarray, np.ndarray] | None:
    """The field count ``width`` (by default, that of the first line of
    ``text``), the text with \\r\\n as \\n and a final \\n, its UTF-8
    bytes and the offsets of their separators, when ``csv.reader`` would
    read every line as its ``str.split(",")`` and all lines have
    ``width`` fields; else None.

    That holds when the text has no quote, no NUL and no \\r outside
    \\r\\n, every line has ``width - 1`` commas, and no line is longer
    than ``csv.field_size_limit()`` (counted in UTF-8 bytes, never fewer
    than its characters). Lines end at \\n alone: csv keeps \\x0b,
    \\x0c, \\x1c-\\x1e, \\x85 and \\u2028 inside a field, where
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
    if width is None:
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
    return width, text, b, sep


def _bounds(sep: np.ndarray, width: int, start: int) -> tuple[np.ndarray, np.ndarray]:
    """The byte offsets where each cell of the lines from byte ``start``
    on begins and ends, as (lines, width) arrays, from the offsets
    ``sep`` of those lines' separators."""
    ends = sep.reshape(-1, width)
    starts = np.empty_like(ends)
    starts[:, 1:] = ends[:, :-1] + 1
    starts[:1, 0] = start
    starts[1:, 0] = ends[:-1, -1] + 1
    return starts, ends


def _int_labels(b: np.ndarray, starts: np.ndarray, ends: np.ndarray,
                k: int) -> np.ndarray | None:
    """The values of the first ``k`` cells of every line, interleaved line
    by line, when each is a canonical decimal integer: digits only, no
    leading zero but in ``0`` itself, at most ``_INT_DIGITS`` of them, so
    that ``str`` of the value gives back the cell; else None. ``starts``
    and ``ends`` bound the cells of the lines in the bytes ``b``."""
    if not len(starts):
        return np.zeros(0, np.int64)
    width, start = ends.shape[1], int(starts[0, 0])
    # a byte that is no digit and no separator must lie in a later column
    data = b[start:]
    odd = np.flatnonzero((data - 48 > 9) & (data != _COMMA) & (data != _NEWLINE)) + start
    if (np.searchsorted(ends.ravel(), odd) % width < k).any():
        return None
    first, last = starts[:, :k].ravel(), ends[:, :k].ravel()
    size = last - first
    if size.min() < 1 or size.max() > _INT_DIGITS or ((b[first] == 48) & (size > 1)).any():
        return None
    values, place = b[last - 1].astype(np.int64) - 48, 1
    for digit in range(2, int(size.max()) + 1):  # the digit places above the ones, in turn
        place *= 10
        values += np.where(size >= digit, b[last - digit].astype(np.int64) - 48, 0) * place
    return values


def _strippable(text: str) -> bool:
    """Whether ``str.strip`` might change a cell of a plain chunk's text:
    False when the text is ASCII and holds no whitespace but its line
    breaks."""
    return not text.isascii() or any(c in text for c in _ASCII_SPACE)


def _int_columns(text: str, b: np.ndarray, sep: np.ndarray, width: int,
                 start: int, k: int) -> list | None:
    """The columns of the lines of a plain chunk from byte ``start`` on,
    the first ``k`` as int64 arrays of their values, when every cell there
    is a canonical decimal integer (:func:`_int_labels`); else None. The
    other columns are stripped strings, from one split of ``text``."""
    starts, ends = _bounds(sep, width, start)
    values = _int_labels(b, starts, ends, k)
    if values is None:
        return None
    rest = _str_columns(text, width, len(starts), k) if k < width else []
    return [values[j::k] for j in range(k)] + rest


def _str_columns(text: str, width: int, rows: int, first: int = 0) -> list[list[str]]:
    """The stripped cells of the last ``rows`` lines of a plain chunk's
    ``text`` as columns ``first`` to ``width - 1``."""
    cells = text[:-1].replace("\n", ",").split(",")
    del cells[:len(cells) - rows * width]  # the header's, in a file's first chunk
    if not _strippable(text):
        return [cells[j::width] for j in range(first, width)]
    return [list(map(str.strip, cells[j::width])) for j in range(first, width)]


def _texts(fh):
    """The text of ``fh`` about CHUNK characters at a time, each piece cut
    after its last \\n (the last piece may end without one)."""
    pieces = []
    while text := fh.read(CHUNK):
        cut = text.rfind("\n") + 1
        if not cut:  # a line longer than a chunk
            pieces.append(text)
            continue
        pieces.append(text[:cut])
        yield "".join(pieces)
        pieces = [text[cut:]]
    if any(pieces):
        yield "".join(pieces)


def _read_chunks(path, check_header, fits, ints: int = 0):
    """Read an edge or relevance file a chunk of lines at a time (a
    matrix file is read a row at a time). Per chunk, yield the stripped
    cells of its data rows as one column per header field, the number of
    its rows, and the field count of the row in it that ends the columns
    (None if none does); the columns stop before that row, and the rows
    after it are counted only. Rows are numbered across chunks: row i of
    the file is record i + 2.

    ``check_header`` gets the header (None for an empty file) before any
    data row is read, and raises if it is wrong. Rows shorter than the
    header are padded with empty cells; a row of another length that
    ``fits(row, width)`` rejects ends the columns. Chunks that
    ``_plain_cells`` accepts are read without per-row objects. From the
    first chunk it does not accept, ``csv.reader`` reads the rest of the
    file in batches of rows; a csv error becomes a MalformedRowError at
    its line once the rows before it are yielded.

    The first ``ints`` columns of a plain chunk whose cells there are all
    canonical decimal integers (:func:`_int_labels`) come as int64 arrays
    of their values, read from the chunk's bytes; the other columns, if
    any, come from one split of the chunk's text, which makes short-lived
    strings for the integer cells as well. From the first chunk that is
    not so, every chunk comes as strings.
    """
    with open(path, encoding="utf-8-sig", newline="") as fh:
        texts = _texts(fh)
        width, lines = None, 0  # the header's field count; the records read
        for text in texts:
            plain = _plain_cells(text, width)
            if plain is None:
                break
            _, text, b, sep = plain
            start = 0  # the offset of the chunk's first data row
            if width is None:
                width = plain[0]
                check_header(text[:text.index("\n")].split(","))
                start, sep = int(sep[width - 1]) + 1, sep[width:]
                lines = 1
            rows = len(sep) // width
            lines += rows
            columns = _int_columns(text, b, sep, width, start, ints) if ints else None
            if columns is None:
                ints = 0
                del plain, b, sep  # freed before the cells are made
                columns = _str_columns(text, width, rows)
            yield columns, rows, None
        else:
            if width is None:
                check_header(None)
            return
        # plain lines are records, so csv picks up at a record boundary
        reader = csv.reader(chain.from_iterable(
            io.StringIO(t, newline="") for t in chain([text], texts)))
        batch = max(1, CHUNK // 16)  # rows; an edge row is about 16 characters
        if width is None:
            try:
                header = next(reader, None)
            except csv.Error as exc:
                raise MalformedRowError(path, reader.line_num, str(exc)) from None
            check_header(header)
            width = len(header)
        error = None
        while error is None:
            rows = []
            try:
                rows.extend(islice(reader, batch))
            except csv.Error as exc:
                error = MalformedRowError(path, lines + reader.line_num, str(exc))
            if rows:
                columns, end = _columns(rows, width, fits)
                yield columns, len(rows), len(rows[end]) if end < len(rows) else None
            elif error is None:
                return
        raise error


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


def _filled(column) -> np.ndarray:
    if isinstance(column, np.ndarray) or all(column):  # an integer label column is full
        return np.ones(len(column), dtype=bool)
    return np.fromiter(map(bool, column), bool, len(column))


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


def _first(mask: np.ndarray) -> int:
    """Index of the first True in ``mask``, or its length."""
    return int(np.argmax(mask)) if mask.any() else len(mask)


# --- edges ---


def load_edge_graph(path) -> Graph:
    """The graph of an edge file, its labels interned a chunk at a time
    by :func:`graph.build_graph_chunks`. A self-loop, weight or duplicate
    fault names the file and the line of its record, as a row fault does."""
    skipped = []  # the lines of the rows that are no record (blank rows), ascending
    try:
        return build_graph_chunks(_edge_chunks(path, skipped))
    except (SelfLoopError, NonPositiveWeightError, DuplicateEdgeError) as exc:
        line = exc.record + 2
        for blank in skipped:
            line += blank <= line
        raise type(exc)(f"{path}:{line}: {exc.detail}") from None


def load_edge_chunks(path):
    """The records of an edge file a chunk at a time, as columns (source,
    target, weight), the form :func:`graph.build_graph_chunks` takes: a
    None target is a bare vertex, a None weight column or weight is 1.
    The source and target of a chunk of canonical decimal integer labels
    come as int64 arrays of their values (see :func:`_read_chunks`).
    Every row check of a chunk runs before the next chunk is read."""
    return _edge_chunks(path, [])


def _edge_chunks(path, skipped: list[int]):
    """:func:`load_edge_chunks`, which appends the line of each row that
    is no record to ``skipped``."""
    check = _header_check(
        path, (["source", "target", "weight"], ["source", "target"]), "source,target[,weight]"
    )
    line = 2  # the record number of a chunk's first row
    for cols, rows, wide in _read_chunks(
        path, check, lambda row, width: len(row) < width or _blank(row), ints=2
    ):
        yield _edge_records(path, line, cols, wide, skipped)
        line += rows


def _edge_records(path, line: int, cols: list, wide: int | None, skipped: list[int]):
    """The records of the columns of one chunk whose first row is record
    ``line``, after the row checks; the line of each row that is no
    record is appended to ``skipped``."""
    src, tgt = cols[0], cols[1]
    end = len(src)
    wtxt = cols[2] if len(cols) == 3 else [""] * end
    has_s, has_t = _filled(src), _filled(tgt)
    has_w = _filled(wtxt) if len(cols) == 3 else np.zeros(end, dtype=bool)
    # per row, in the order the checks apply: source, then target, then weight
    no_source = ~has_s & (has_t | has_w)
    orphan_weight = has_s & ~has_t & has_w
    weighted = has_s & has_t & has_w
    values, bad = _float_cells(list(compress(wtxt, weighted)))
    bad_weight = np.zeros(end, dtype=bool)
    bad_weight[weighted] = bad

    k = _first(no_source | orphan_weight | bad_weight)
    if k < end:
        if no_source[k]:
            raise MalformedRowError(path, line + k, "missing source vertex")
        if orphan_weight[k]:
            raise MalformedRowError(path, line + k, "weight given without a target vertex")
        raise MalformedRowError(path, line + k, f"bad weight {wtxt[k]!r}")
    if wide is not None:
        raise MalformedRowError(path, line + end, f"too many fields ({wide})")
    weights = values.tolist()
    if has_s.all() and has_t.all():  # every row an edge
        if len(weights) not in (0, end):
            w = iter(weights)
            weights = [next(w) if x else None for x in weighted.tolist()]
        return src, tgt, weights or None
    # a row without a source is blank; one without a target a bare vertex
    skipped.extend((line + np.flatnonzero(~has_s)).tolist())
    w = iter(weights)
    weight = [next(w) if x else None for x in compress(weighted.tolist(), has_s)]
    return (list(compress(src, has_s)), [t or None for t in compress(tgt, has_s)],
            weight if weights else None)


def load_edge_csv(path) -> list[tuple]:
    """Edge records plus bare-vertex records, ready for build_graph:
    ``(source, target, weight)``, ``(source, target)`` where the weight
    is empty, ``(source,)`` for a bare vertex."""
    records = []
    for src, tgt, weight in load_edge_chunks(path):
        if isinstance(src, np.ndarray):  # integer labels, as the text they were read from
            src, tgt = list(map(str, src.tolist())), list(map(str, tgt.tolist()))
        if None not in tgt and (weight is None or None not in weight):
            records += zip(src, tgt) if weight is None else zip(src, tgt, weight)
        else:
            records += [(s,) if t is None else (s, t) if x is None else (s, t, x)
                        for s, t, x in zip(src, tgt, weight or repeat(None))]
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
    """The relevance of every vertex, 1 where the file lists none. When
    the graph's labels came as integer values, a plain chunk whose vertex
    cells are all canonical decimal integers has its vertex values read
    from its bytes (its relevance cells from a split of its text), and
    the values find their indices through the graph's table, with no
    label dict; from the first chunk that is not so, the rest of the file
    is read as strings."""
    check = _header_check(path, (["vertex", "relevance"],), "vertex,relevance")
    R = np.ones(g.vertex_count)
    listed_before = np.zeros(g.vertex_count, dtype=bool)
    line = 2  # the record number of a chunk's first row
    ints = int(g.integer_labels)
    for (labels, vtxt), rows, wrong in _read_chunks(
        path, check, lambda row, width: _blank(row), ints
    ):
        end = len(labels)
        listed = _filled(labels) | _filled(vtxt)
        idx = g.indices_of(labels)
        unknown = listed & (idx < 0)
        known = np.flatnonzero(listed & (idx >= 0))
        duplicate = np.zeros(end, dtype=bool)
        seen = np.sort(idx[known])
        if (seen[1:] == seen[:-1]).any():  # a vertex listed twice in the chunk
            duplicate[known] = True
            duplicate[known[np.unique(idx[known], return_index=True)[1]]] = False
        duplicate[known] |= listed_before[idx[known]]
        at = np.flatnonzero(listed)
        values, bad = _float_cells(list(compress(vtxt, listed)))
        bad_value = np.zeros(end, dtype=bool)
        bad_value[at] = bad
        x = np.ones(end)
        x[at] = values  # a bad cell holds 0.0
        not_positive = ~(np.isfinite(x) & (x > 0.0))

        # per row, in the order the checks apply
        k = _first(unknown | duplicate | bad_value | not_positive)
        if k < end:
            label = str(labels[k])  # an integer label's text is str of its value
            if unknown[k]:
                raise UnknownVertexInRelevanceError(
                    f"{path}:{line + k}: vertex {label!r} is not in the graph"
                )
            if duplicate[k]:
                raise MalformedRowError(path, line + k, f"duplicate vertex {label!r}")
            if bad_value[k]:
                raise MalformedRowError(path, line + k, f"bad relevance {vtxt[k]!r}")
            raise MalformedRowError(
                path, line + k, f"relevance must be positive and finite, got {vtxt[k]}"
            )
        if wrong is not None:
            raise MalformedRowError(path, line + end, f"expected 2 fields, got {wrong}")
        R[idx[at]] = values
        listed_before[idx[at]] = True
        line += rows
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


def load_f_matrix_csv(path, g: Graph) -> RelevanceFunction:
    """Dense F table with vertex labels on the header row and first column,
    read by ``csv.reader`` a row at a time, each row checked as it arrives.

    A csv error (a MalformedRowError at its line) comes first, then a
    wrong number of data rows, then the first faulty row's error. Within
    a row the checks apply in the order field count, row label, then each
    cell in column order (a bad float, a nonzero diagonal or a negative
    entry).
    """
    n = g.vertex_count
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise MalformedRowError(path, 1, "empty file, expected a label header")
            col_labels = [c.strip() for c in header[1:]]
            if len(col_labels) != n or sorted(col_labels) != sorted(g.labels):
                raise MatrixShapeMismatchError(
                    f"{path}: column labels do not match the graph's {n} vertices")
            col = g.indices_of(col_labels)
            F, listed = np.zeros((n, n)), np.zeros(n, dtype=bool)
            line, fault = 1, None  # the record number of the last row read; the first fault
            for line, row in enumerate(reader, start=2):
                if fault is None:
                    fault = _matrix_row(path, line, g, col_labels, col, row, F, listed)
        except csv.Error as exc:
            raise MalformedRowError(path, reader.line_num, str(exc)) from None
    if line - 1 != n:
        raise MatrixShapeMismatchError(f"{path}: expected {n} data rows, found {line - 1}")
    if fault is not None:
        raise fault
    return matrix_function(F)


def _matrix_row(path, line, g, col_labels, col, row, F, listed):
    """Enter ``row``, record ``line`` of a matrix file, into ``F``, or return its error."""
    n = len(col)
    if len(row) != n + 1:
        return MalformedRowError(path, line, f"expected {n + 1} fields, got {len(row)}")
    label, cells = row[0].strip(), list(map(str.strip, row[1:]))
    if not g.has_vertex(label):
        return MatrixShapeMismatchError(f"{path}:{line}: row label {label!r} is not in the graph")
    i = g.index_of(label)
    if listed[i]:
        return MalformedRowError(path, line, f"duplicate row label {label!r}")
    values, bad = _float_cells(cells)  # a bad cell holds 0.0
    diagonal = col == i
    j = _first(bad | np.where(diagonal, values != 0.0, values < 0.0))
    if j == n:
        F[i, col] = values
        listed[i] = True
        return None
    if bad[j]:
        return MalformedRowError(path, line, f"bad matrix entry {cells[j]!r}")
    if diagonal[j]:
        return NonzeroDiagonalError(
            f"{path}:{line}: diagonal entry F[{label}][{label}] must be 0, got {values[j]:g}")
    return MalformedRowError(
        path, line, f"negative entry {values[j]:g} at column {col_labels[j]!r}")


# --- result documents ---


@dataclass
class ResultDocument:
    """The metadata of a result and the reports it holds, by metric: a
    later report of a metric replaces an earlier one. Every report is of
    ``graph``."""

    metadata: dict
    reports: tuple[CentralityReport, ...]
    graph: Graph


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
    return ResultDocument(meta, tuple(reports), g)


def _tables(doc: ResultDocument) -> tuple[dict, dict]:
    """The vertex and the edge reports of ``doc`` by metric name, names
    sorted. Raises ValueError on a report of another graph, and on a
    non-finite value, which JSON cannot hold."""
    tables: dict = {"vertex": {}, "edge": {}}
    for rep in doc.reports:
        if rep.graph is not doc.graph:
            raise ValueError(f"{rep.metric.value} is a report of another graph")
        if not np.isfinite(rep.values).all():
            raise ValueError(f"{rep.metric.value} holds a non-finite value")
        tables[rep.kind][rep.metric.value] = rep
    return tuple({name: t[name] for name in sorted(t)} for t in tables.values())


_json_str = json.encoder.encode_basestring_ascii


def _g12(values: np.ndarray) -> list[str]:
    """The "%.12g" text of each value, all made by one % call."""
    return ("%.12g\n" * len(values) % tuple(values.tolist())).split("\n")[:-1]


def _json_floats(values: np.ndarray) -> list[str]:
    """The JSON text of each finite value cut to 12 significant digits:
    what ``float.__repr__`` writes for the cut value."""
    a = np.abs(values)
    # "%.12g" writes what float.__repr__ writes for the 12-digit value,
    # except ".0" on whole numbers and in two bands, which keep the float
    # and repr round trip: exponents 12 to 15, which repr writes without
    # one, and subnormals, whose repr can be shorter (both with a margin)
    texts = _g12(values)
    for i in np.flatnonzero(((a >= 9e11) & (a < 1e16)) | ((a > 0) & (a < 1e-307))).tolist():
        texts[i] = float.__repr__(float(texts[i]))
    return [t if "." in t or "e" in t else t + ".0" for t in texts]


# items of a table formatted and joined at a time: one piece of the JSON text
_PIECE = 4096


def _container(brackets: str, n: int, items, pad: str):
    """The pieces of a JSON list or object (``brackets`` "[]" or "{}")
    at indent ``pad`` of ``n`` items, whose texts ``items(i, j)`` gives
    for items i to j."""
    if not n:
        yield brackets
        return
    inner = pad + "  "
    sep, comma = brackets[0] + "\n" + inner, ",\n" + inner
    for i in range(0, n, _PIECE):
        yield sep + comma.join(items(i, i + _PIECE))
        sep = comma
    yield "\n" + pad + brackets[1]


def _by_metric(reports: dict, write, pad: str, texts: list[str]):
    """The pieces of a JSON object at indent ``pad`` that maps each
    metric name of ``reports`` to the pieces ``write(report, inner,
    texts)`` gives at the next indent; ``texts`` are the JSON texts of
    the vertex labels."""
    if not reports:
        yield "{}"
        return
    inner = pad + "  "
    sep = "{\n" + inner
    for name, rep in reports.items():
        yield sep + _json_str(name) + ": "
        yield from write(rep, inner, texts)
        sep = ",\n" + inner
    yield "\n" + pad + "}"


def _rows(fmt: str, pad: str, texts: list[str], u: np.ndarray, v: np.ndarray,
          values: np.ndarray | None = None):
    """The pieces of a JSON list at indent ``pad`` of a row per edge
    ``(u[k], v[k])``, each ``fmt`` (a "%s" per column) filled with the
    JSON ``texts`` of its two labels and, when given, its value, by one %
    call per piece."""
    comma = ",\n" + pad + "  "

    def piece(i, j):
        cols = [list(map(texts.__getitem__, x[i:j].tolist())) for x in (u, v)]
        if values is not None:
            cols.append(_json_floats(values[i:j]))
        cells = [None] * (len(cols) * len(cols[0]))
        for c, col in enumerate(cols):
            cells[c::len(cols)] = col
        return [comma.join([fmt] * len(cols[0])) % tuple(cells)]
    return _container("[]", len(u), piece, pad)


def _vertex_values(rep: CentralityReport, pad: str, texts: list[str]):
    """A vertex table, its rows in label order."""
    order = rep.graph.label_order
    values = rep.values[order]
    return _container("{}", len(order), lambda i, j: map("{}: {}".format, map(
        texts.__getitem__, order[i:j].tolist()), _json_floats(values[i:j])), pad)


def _edge_values(rep: CentralityReport, pad: str, texts: list[str]):
    """An edge table, its rows in edge order."""
    row = pad + "  "
    fmt = ("{\n" + row + '  "source": %s,\n' + row + '  "target": %s,\n'
           + row + '  "value": %s\n' + row + "}")
    return _rows(fmt, pad, texts, *rep.graph.edge_endpoints, rep.values)


def _vertex_ranking(rep: CentralityReport, pad: str, texts: list[str]):
    return _container("[]", len(rep.order),
                      lambda i, j: map(texts.__getitem__, rep.order[i:j].tolist()), pad)


def _edge_ranking(rep: CentralityReport, pad: str, texts: list[str]):
    row = pad + "  "
    fmt = "[\n" + row + "  %s,\n" + row + "  %s\n" + row + "]"
    u, v = rep.graph.edge_endpoints
    return _rows(fmt, pad, texts, u[rep.order], v[rep.order])


def _json_pieces(metadata: dict, vertex: dict, edge: dict, texts: list[str]):
    yield '{\n  "edges": '
    yield from _by_metric(edge, _edge_values, "  ", texts)
    # six scalars, laid out by the json module one level in
    meta = json.dumps(metadata, sort_keys=True, indent=2)
    yield ',\n  "metadata": ' + meta.replace("\n", "\n  ")
    yield ',\n  "rankings": {\n    "edges": '
    yield from _by_metric(edge, _edge_ranking, "    ", texts)
    yield ',\n    "vertices": '
    yield from _by_metric(vertex, _vertex_ranking, "    ", texts)
    yield '\n  },\n  "vertices": '
    yield from _by_metric(vertex, _vertex_values, "  ", texts)
    yield "\n}\n"


def results_json_pieces(doc: ResultDocument):
    """The text of :func:`write_results_json` in pieces, none longer than
    _PIECE table items: what a writer puts in a file as it comes. Raises
    ValueError, before the first piece, on a non-finite value or a report
    of another graph."""
    vertex, edge = _tables(doc)
    texts = list(map(_json_str, doc.graph.labels))  # once for every table
    return _json_pieces(doc.metadata, vertex, edge, texts)


def write_results_json(doc: ResultDocument) -> bytes:
    """Stable bytes: keys and vertex labels sorted, floats cut to 12
    significant digits, laid out as ``json.dumps(..., sort_keys=True,
    indent=2)`` lays it out."""
    return "".join(results_json_pieces(doc)).encode("ascii")


def _g12_pieces(values: np.ndarray):
    """The "%.12g" text of each value, made _PIECE values at a time as
    they are read, so the text of a whole column is never held."""
    return chain.from_iterable(
        _g12(values[i:i + _PIECE]) for i in range(0, len(values), _PIECE))


def write_results_csv(doc: ResultDocument, fh) -> None:
    """Flat CSV to the text file ``fh``: metric,source,target,value;
    vertex rows leave target empty. Labels are quoted where they hold a
    comma, a quote or a line break."""
    vertex, edge = _tables(doc)
    g = doc.graph
    w = csv.writer(fh, lineterminator="\n")
    w.writerow(["metric", "source", "target", "value"])
    for name, rep in vertex.items():
        w.writerows(zip(repeat(name), g.labels, repeat(""), _g12_pieces(rep.values)))
    label = g.labels.__getitem__
    u, v = g.edge_endpoints
    for name, rep in edge.items():
        w.writerows(zip(repeat(name), map(label, u.tolist()), map(label, v.tolist()),
                        _g12_pieces(rep.values)))


# --- DOT export ---


def _normalize(values: np.ndarray) -> np.ndarray:
    if not len(values):
        return np.zeros(0)
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
    quoted = list(map(_quote, g.labels))
    if vertex_report is not None:
        z = _normalize(vertex_report.values)
        for lab, zi in zip(quoted, z):
            width = 0.3 + 1.2 * float(zi)
            lines.append(f"  {lab} [width={width:.3f}];")
    else:
        lines += [f"  {lab};" for lab in quoted]
    u, v = g.edge_endpoints
    ends = zip(map(quoted.__getitem__, u.tolist()), map(quoted.__getitem__, v.tolist()))
    if edge_report is not None:
        z = _normalize(edge_report.values)
        for (a, b), zi in zip(ends, z):
            c = round(255 * (1.0 - float(zi)))  # cyan fades out as value grows
            lines.append(
                f"  {a} -- {b} [color=\"#00{c:02x}{c:02x}\", penwidth={1.0 + 2.0 * float(zi):.3f}];"
            )
    else:
        lines += [f"  {a} -- {b};" for a, b in ends]
    lines.append("}")
    return "\n".join(lines) + "\n"
