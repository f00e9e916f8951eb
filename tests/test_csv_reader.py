"""The column readers of io_formats against row-by-row csv.reader references.

Edge and relevance files take one of two paths: a text that csv.reader
would read as ``str.split(",")`` of each line, every line as wide as the
header, is split in one pass; any other goes through csv.reader. Both
must give the records, values and errors of the references below, which
read one csv.reader row at a time.
"""

import csv
import math
import re
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relcentral import graph, io_formats
from relcentral.errors import (
    DuplicateEdgeError,
    MalformedRowError,
    MatrixShapeMismatchError,
    NonPositiveWeightError,
    NonzeroDiagonalError,
    RelcentralError,
    SelfLoopError,
    UnknownVertexInRelevanceError,
)
from relcentral.graph import build_graph, build_graph_chunks
from relcentral.io_formats import (
    _plain_cells,
    load_edge_chunks,
    load_edge_csv,
    load_edge_graph,
    load_f_matrix_csv,
    load_relevance_csv,
)

DATA = Path(__file__).parent / "data"

# --- references: one csv.reader row at a time ---


def _read_with(path, body, *args):
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            return body(path, reader, *args)
        except csv.Error as exc:
            raise MalformedRowError(path, reader.line_num, str(exc)) from None


def _check_header(path, reader, headers, expected):
    header = next(reader, None)
    if header is None:
        raise MalformedRowError(path, 1, "empty file, expected a header row")
    if [c.strip().lower() for c in header] not in headers:
        raise MalformedRowError(path, 1, f"expected header {expected}, got {','.join(header)!r}")
    return len(header)


def _edge_rows(path, reader):
    width = _check_header(path, reader, (["source", "target", "weight"], ["source", "target"]),
                          "source,target[,weight]")
    records = []
    for line_no, row in enumerate(reader, start=2):
        cells = [c.strip() for c in row]
        if not any(cells):
            continue
        if len(row) > width:
            raise MalformedRowError(path, line_no, f"too many fields ({len(row)})")
        s, t, w = cells + [""] * (3 - len(cells))
        if not s:
            raise MalformedRowError(path, line_no, "missing source vertex")
        if not t:
            if w:
                raise MalformedRowError(path, line_no, "weight given without a target vertex")
            records.append((s,))
        elif not w:
            records.append((s, t))
        else:
            try:
                records.append((s, t, float(w)))
            except ValueError:
                raise MalformedRowError(path, line_no, f"bad weight {w!r}") from None
    return records


def _relevance_rows(path, reader, g):
    _check_header(path, reader, (["vertex", "relevance"],), "vertex,relevance")
    values, seen = np.ones(g.vertex_count), set()
    for line_no, row in enumerate(reader, start=2):
        cells = [c.strip() for c in row]
        if not any(cells):
            continue
        if len(row) != 2:
            raise MalformedRowError(path, line_no, f"expected 2 fields, got {len(row)}")
        label, text = cells
        if not g.has_vertex(label):
            raise UnknownVertexInRelevanceError(
                f"{path}:{line_no}: vertex {label!r} is not in the graph")
        if label in seen:
            raise MalformedRowError(path, line_no, f"duplicate vertex {label!r}")
        seen.add(label)
        try:
            x = float(text)
        except ValueError:
            raise MalformedRowError(path, line_no, f"bad relevance {text!r}") from None
        if not (math.isfinite(x) and x > 0.0):
            raise MalformedRowError(
                path, line_no, f"relevance must be positive and finite, got {text}")
        values[g.index_of(label)] = x
    return values


def _matrix_rows(path, reader, g):
    rows = list(reader)
    if not rows:
        raise MalformedRowError(path, 1, "empty file, expected a label header")
    col_labels = [c.strip() for c in rows[0][1:]]
    n = g.vertex_count
    if len(col_labels) != n or sorted(col_labels) != sorted(g.labels):
        raise MatrixShapeMismatchError(
            f"{path}: column labels do not match the graph's {n} vertices")
    if len(rows) - 1 != n:
        raise MatrixShapeMismatchError(f"{path}: expected {n} data rows, found {len(rows) - 1}")
    F, seen = np.zeros((n, n)), set()
    for line_no, row in enumerate(rows[1:], start=2):
        if len(row) != n + 1:
            raise MalformedRowError(path, line_no, f"expected {n + 1} fields, got {len(row)}")
        label = row[0].strip()
        if not g.has_vertex(label):
            raise MatrixShapeMismatchError(
                f"{path}:{line_no}: row label {label!r} is not in the graph")
        if label in seen:
            raise MalformedRowError(path, line_no, f"duplicate row label {label!r}")
        seen.add(label)
        i = g.index_of(label)
        for col_label, cell in zip(col_labels, row[1:]):
            try:
                val = float(cell.strip())
            except ValueError:
                raise MalformedRowError(
                    path, line_no, f"bad matrix entry {cell.strip()!r}") from None
            j = g.index_of(col_label)
            if i == j and val != 0.0:
                raise NonzeroDiagonalError(
                    f"{path}:{line_no}: diagonal entry F[{label}][{label}] must be 0, got {val:g}")
            if i != j and val < 0.0:
                raise MalformedRowError(
                    path, line_no, f"negative entry {val:g} at column {col_label!r}")
            F[i, j] = val
    return F


def outcome(fn, *args):
    """The value of ``fn(*args)`` (as its repr, so NaN equals NaN), or the
    type and message of the error it raised."""
    try:
        return repr(fn(*args))
    except Exception as exc:  # every error must match, whatever its type
        return type(exc), str(exc)


def graph_outcome(fn):
    """The labels and the u, v and w arrays of the graph ``fn()`` builds,
    or the type and message of the error it raised."""
    try:
        g = fn()
    except Exception as exc:  # every error must match, whatever its type
        return type(exc), str(exc)
    return g.labels, *(a.tolist() for a in (*g.edge_endpoints, g.edge_weights))


def named_by_line(path, outcome):
    """``outcome``, a graph_outcome of the records of edge file ``path``,
    with a self-loop, weight or duplicate fault's ``record k`` named by
    the file and the line of record k, its k-th row that is not blank."""
    fault = outcome[0] in (SelfLoopError, NonPositiveWeightError, DuplicateEdgeError)
    match = fault and re.fullmatch(r"record (\d+): (.*)", outcome[1], re.S)
    if not match:
        return outcome
    with open(path, encoding="utf-8", newline="") as fh:
        lines = [n for n, row in enumerate(csv.reader(fh), start=1)
                 if n > 1 and any(c.strip() for c in row)]
    return outcome[0], f"{path}:{lines[int(match[1])]}: {match[2]}"


def write(tmp_path, name, text):
    p = tmp_path / name
    with open(p, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return p


def uses_csv_reader(monkeypatch):
    calls = []
    reader = csv.reader

    def spy(*args, **kwargs):
        calls.append(1)
        return reader(*args, **kwargs)

    monkeypatch.setattr(io_formats.csv, "reader", spy)
    return calls


# --- random tables ---

# whitespace that str.strip removes and csv keeps inside a field; the line
# breaks among them are ones str.splitlines would split at
_SPACE = st.sampled_from([" ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                          "\u2028", "\u2029", "\xa0"])
_LABELS = ("a", "b", "c", "x y", "d\x0be", "e\u2028f", "g\x1ch")
_NUMBERS = ("1", "2.5", "1e3", "1_000", ".5", "+7", "-1", "0", "-0", "inf", "-Infinity",
            "nan", "1e999", "0x10", "1.2.3", "x", "2.5E-1", "4")
# each sends the text down the csv.reader path
_SPECIAL = ('"a"', '" b "', '"x,1"', '"q""r"', "a\x00", "a\rb", '"c\nd"')


def _padded(core):
    pad = st.lists(_SPACE, max_size=2).map("".join)
    return st.builds(lambda a, c, b: a + c + b, pad, core, pad)


_cell = _padded(st.sampled_from(_LABELS + _NUMBERS + ("",)))


@st.composite
def _tables(draw, headers, labels):
    """Text of a CSV file: a header drawn from ``headers``, then rows of
    padded cells; rectangular in about half of the tables, so that both
    reader paths are taken."""
    header = draw(st.sampled_from(headers))
    width = header.count(",") + 1
    rectangular = draw(st.booleans())
    cell = st.one_of(_cell, _padded(st.sampled_from(labels)))
    if not rectangular:
        cell = st.one_of(cell, st.sampled_from(_SPECIAL))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(("cells", "cells", "cells", "bare", "blank")))
        n = width if rectangular else draw(st.integers(0, width + 2))
        cells = [draw(cell) for _ in range(n)]
        if kind == "bare" and n > 1:
            cells[1:] = [draw(_padded(st.just(""))) for _ in range(n - 1)]
        elif kind == "blank":
            cells = [draw(_padded(st.just(""))) for _ in range(n)]
        rows.append(",".join(cells))
    eol = draw(st.sampled_from(("\n", "\r\n")))
    text = eol.join([header] + rows)
    return text + eol if draw(st.booleans()) else text


_GRAPH_LABELS = ("a", "b", "c", "x y", "d\x0be", "e\u2028f", "g\x1ch")
_GRAPH = build_graph(list(zip(_GRAPH_LABELS, _GRAPH_LABELS[1:])))


@settings(max_examples=300, deadline=None)
@given(_tables(("source,target,weight", "source,target", " Source ,TARGET", "from,to", ""),
               _LABELS))
def test_edge_reader_matches_csv_reader(tmp_path_factory, text):
    p = write(tmp_path_factory.mktemp("e"), "e.csv", text)
    want = outcome(_read_with, p, _edge_rows)
    assert outcome(load_edge_csv, p) == want
    # the graph from the columns is the graph from the records
    want_graph = graph_outcome(lambda: build_graph(_read_with(p, _edge_rows)))
    assert graph_outcome(lambda: build_graph_chunks(load_edge_chunks(p))) == want_graph
    assert graph_outcome(lambda: load_edge_graph(p)) == named_by_line(p, want_graph)


@settings(max_examples=300, deadline=None)
@given(_tables(("vertex,relevance", " VERTEX , relevance", "vertex", ""), _GRAPH_LABELS))
def test_relevance_reader_matches_csv_reader(tmp_path_factory, text):
    p = write(tmp_path_factory.mktemp("r"), "r.csv", text)
    want = outcome(_read_with, p, _relevance_rows, _GRAPH)
    assert outcome(lambda: load_relevance_csv(p, _GRAPH).values) == want


# --- which path a text takes ---


@pytest.mark.parametrize("text", [
    'source,target\n"a",b\n',             # a quote
    "source,target\na\x00,b\n",           # a NUL (csv.Error before Python 3.11)
    "source,target\na\rb,c\n",            # a lone \r
    "source,target\r\na,b\rc,d\r\n",
    "source,target\na,b\n\nc,d\n",        # a blank line
    "source,target\nlonely\nc,d\n",       # a bare vertex without its commas
    "source,target\na,b,\n",              # a too-wide row
])
def test_special_texts_take_the_csv_path(tmp_path, monkeypatch, text):
    assert _plain_cells(text) is None
    p = write(tmp_path, "e.csv", text)
    calls = uses_csv_reader(monkeypatch)
    assert outcome(load_edge_csv, p) == outcome(_read_with, p, _edge_rows)
    assert calls


@pytest.mark.parametrize("text, records", [
    ("source,target\na,b\nc,d\n", [("a", "b"), ("c", "d")]),
    ("source,target\r\na,b\r\nc,d", [("a", "b"), ("c", "d")]),
    # csv keeps these inside a field; str.splitlines would break the line
    ("source,target\na\x0bb,c\u2028d\n e\x1cf\x85 ,\x0cg\n",
     [("a\x0bb", "c\u2028d"), ("e\x1cf", "g")]),
    ("source,target,weight\na,b,1e3\n c ,\td , \n", [("a", "b", 1000.0), ("c", "d")]),
    ("source,target,weight\nlonely,,\n", [("lonely",)]),
])
def test_plain_texts_are_split_without_csv_reader(tmp_path, monkeypatch, text, records):
    assert _plain_cells(text) is not None
    p = write(tmp_path, "e.csv", text)
    calls = uses_csv_reader(monkeypatch)
    assert load_edge_csv(p) == records
    assert not calls
    assert _read_with(p, _edge_rows) == records


@pytest.fixture
def field_limit():
    old = csv.field_size_limit(16)
    yield 16
    csv.field_size_limit(old)


def test_a_line_over_the_field_limit_takes_the_csv_path(tmp_path, monkeypatch, field_limit):
    text = f"source,target\n{'a' * 12},{'b' * 12}\n"  # every field fits, the line does not
    assert _plain_cells(text) is None
    p = write(tmp_path, "e.csv", text)
    calls = uses_csv_reader(monkeypatch)
    assert load_edge_csv(p) == [("a" * 12, "b" * 12)]
    assert calls


@pytest.mark.parametrize("loader, header", [
    (load_edge_csv, "source,target"),
    (lambda p: load_relevance_csv(p, _GRAPH), "vertex,relevance"),
    (lambda p: load_f_matrix_csv(p, build_graph([("a", "b")])), ",a,b\na,0,1"),
])
def test_csv_errors_become_malformed_rows(tmp_path, field_limit, loader, header):
    p = write(tmp_path, "t.csv", f"{header}\nb,{'9' * 20}\n")
    with pytest.raises(MalformedRowError) as info:
        loader(p)
    line_no = header.count("\n") + 2
    assert info.value.line_no == line_no
    assert str(info.value).startswith(f"{p}:{line_no}: field larger than field limit")


def test_a_header_over_the_field_limit_is_a_malformed_row_at_line_1(tmp_path, field_limit):
    # the long header line keeps the first chunk off the split path
    p = write(tmp_path, "e.csv", f"source,{'t' * 20}\na,b\n")
    assert _plain_cells(p.read_text()) is None
    with pytest.raises(MalformedRowError) as info:
        load_edge_csv(p)
    assert info.value.line_no == 1
    assert str(info.value).startswith(f"{p}:1: field larger than field limit")


# --- matrix f ---


_MATRIX_GRAPH = build_graph([("a", "b"), ("b", "c")])


@st.composite
def _matrices(draw):
    """Text of a matrix file over a, b and c: rows in any number and order,
    some short or blank, fields quoted about a quarter of the time, \\n or
    \\r\\n line ends, at times a leading byte-order mark; a cell after
    \\x1c, which str.strip removes and float does not."""
    def field(text):
        return '"' + text.replace('"', '""') + '"' if draw(st.integers(0, 3)) == 0 else text

    order = draw(st.permutations(["a", "b", "c"]))
    lines = ["," + ",".join(map(field, order))]
    for _ in range(draw(st.sampled_from([3, 3, 3, 2, 4]))):
        if draw(st.integers(0, 9)) == 0:
            lines.append("")
            continue
        label = draw(st.sampled_from(["a", "b", "c", " b ", "q"]))
        cells = draw(st.lists(st.sampled_from(["0", "1", "2.5", "-1", "x", "nan", " 3 ", "-0",
                                               "1,5", 'q"r', "\x1c4"]), min_size=3, max_size=3))
        if draw(st.integers(0, 9)) == 0:
            cells = cells[:draw(st.integers(0, 4))]
        lines.append(",".join(map(field, [label] + cells)))
    eol = draw(st.sampled_from(("\n", "\r\n")))
    return "\ufeff" * draw(st.booleans()) + eol.join(lines) + eol


@settings(max_examples=300, deadline=None)
@given(_matrices())
def test_matrix_reader_matches_the_per_cell_reference(tmp_path_factory, text):
    p = write(tmp_path_factory.mktemp("m"), "m.csv", text)
    want = outcome(_read_with, p, _matrix_rows, _MATRIX_GRAPH)
    assert outcome(lambda: load_f_matrix_csv(p, _MATRIX_GRAPH).matrix) == want


_MATRIX_FAULTS = [
    # the first faulty cell in the row decides, whatever its fault
    ("b,x,0,-5", MalformedRowError, "bad matrix entry 'x'"),
    ("b,-4,0,x", MalformedRowError, "negative entry -4 at column 'a'"),
    ("b,4,9,-5", NonzeroDiagonalError, "diagonal entry F[b][b] must be 0, got 9"),
    ("b,-4,9,5", MalformedRowError, "negative entry -4 at column 'a'"),
    ("b,4,nan,5", NonzeroDiagonalError, "diagonal entry F[b][b] must be 0, got nan"),
    ("b,4,0,-1e-3", MalformedRowError, "negative entry -0.001 at column 'c'"),
    # the row label before any cell
    ("a,x,0,5", MalformedRowError, "duplicate row label 'a'"),
    ("q,x,0,5", MatrixShapeMismatchError, "row label 'q' is not in the graph"),
    # the field count before the label
    ("q,x,0", MalformedRowError, "expected 4 fields, got 3"),
]


@pytest.mark.parametrize("row_b, error, message", _MATRIX_FAULTS)
def test_matrix_first_faulty_cell_decides(tmp_path, row_b, error, message):
    # row a is fine and row c holds a fault of its own, which comes later
    text = ",a,b,c\na,0,1,2\n" + row_b + "\nc,-1,x,0\n"
    p = write(tmp_path, "m.csv", text)
    with pytest.raises(error) as info:
        load_f_matrix_csv(p, _MATRIX_GRAPH)
    assert type(info.value) is error
    assert str(info.value) == f"{p}:3: {message}"


def test_a_matrix_with_quoted_labels_is_read_a_row_at_a_time(tmp_path):
    # F is 0.7 MiB; a reader that holds every cell as a string at once peaks near 9.5 MiB
    n = 300
    labels = [f"v{i}" for i in range(n)]
    g = build_graph(list(zip(labels, labels[1:])))
    F = np.random.default_rng(1).uniform(0.0, 2.0, (n, n))
    np.fill_diagonal(F, 0.0)
    rows = "".join(f"{s}," + ",".join(map(repr, row)) + "\n" for s, row in zip(labels, F.tolist()))
    p = write(tmp_path, "m.csv", "," + ",".join(f'"{s}"' for s in labels) + "\n" + rows)
    tracemalloc.start()
    try:
        got = load_f_matrix_csv(p, g).matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tobytes() == F.tobytes()
    assert peak <= 3 * F.nbytes + 2**20


# --- files read a chunk of lines at a time ---


@contextmanager
def _chunks_of(chars):
    """io_formats.CHUNK set to ``chars`` (csv.reader batches of one row)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(io_formats, "CHUNK", chars)
        yield


# 1 character: every line is longer than a chunk; 12: a line or two
_SMALL = [1, 12]


@pytest.mark.parametrize("chars", _SMALL)
@settings(max_examples=150, deadline=None)
@given(text=_tables(("source,target,weight", "source,target", " Source ,TARGET", "from,to", ""),
                    _LABELS))
def test_edge_reader_matches_csv_reader_in_small_chunks(tmp_path_factory, chars, text):
    p = write(tmp_path_factory.mktemp("e"), "e.csv", text)
    want = outcome(_read_with, p, _edge_rows)
    want_graph = graph_outcome(lambda: build_graph(_read_with(p, _edge_rows)))
    with _chunks_of(chars):
        assert outcome(load_edge_csv, p) == want
        assert graph_outcome(lambda: build_graph_chunks(load_edge_chunks(p))) == want_graph
        assert graph_outcome(lambda: load_edge_graph(p)) == named_by_line(p, want_graph)


@pytest.mark.parametrize("chars", _SMALL)
@settings(max_examples=150, deadline=None)
@given(text=_tables(("vertex,relevance", " VERTEX , relevance", "vertex", ""), _GRAPH_LABELS))
def test_relevance_reader_matches_csv_reader_in_small_chunks(tmp_path_factory, chars, text):
    p = write(tmp_path_factory.mktemp("r"), "r.csv", text)
    want = outcome(_read_with, p, _relevance_rows, _GRAPH)
    with _chunks_of(chars):
        assert outcome(lambda: load_relevance_csv(p, _GRAPH).values) == want


@pytest.mark.parametrize("chars", _SMALL)
@settings(max_examples=150, deadline=None)
@given(text=_matrices())
def test_matrix_reader_matches_the_per_cell_reference_in_small_chunks(tmp_path_factory, chars,
                                                                      text):
    p = write(tmp_path_factory.mktemp("m"), "m.csv", text)
    want = outcome(_read_with, p, _matrix_rows, _MATRIX_GRAPH)
    with _chunks_of(chars):
        assert outcome(lambda: load_f_matrix_csv(p, _MATRIX_GRAPH).matrix) == want


@pytest.mark.parametrize("chars", _SMALL)
@pytest.mark.parametrize("row_b, error, message", _MATRIX_FAULTS)
def test_matrix_first_faulty_cell_decides_in_small_chunks(tmp_path, chars, row_b, error, message):
    with _chunks_of(chars):
        test_matrix_first_faulty_cell_decides(tmp_path, row_b, error, message)


def _plain_rows(k):
    return "".join(f"v{i},v{i + 1}\n" for i in range(k))


def test_quoted_label_and_crlf_after_the_first_chunk(tmp_path, monkeypatch):
    # plain chunks, then csv.reader from the start of the chunk with the quote
    text = "source,target\n" + _plain_rows(40) + '"q,1",v0\r\nv0,"r""s"\r\nv3,v9\r\n'
    p = write(tmp_path, "e.csv", text)
    calls = uses_csv_reader(monkeypatch)
    with _chunks_of(64):
        records = load_edge_csv(p)
        g = build_graph_chunks(load_edge_chunks(p))
    assert calls
    assert records[-3:] == [("q,1", "v0"), ("v0", 'r"s'), ("v3", "v9")]
    assert records == _read_with(p, _edge_rows)
    assert g.edge_records() == build_graph(records).edge_records()
    assert g.labels == build_graph(records).labels


@pytest.mark.parametrize("row", ["\ufeffa,b", '"\ufeffa",b'])
def test_only_a_leading_byte_order_mark_is_skipped(tmp_path, row):
    # one that opens a later row is a character of its cell, quoted or not
    p = write(tmp_path, "e.csv", f"\ufeffsource,target\n{row}\n")
    assert load_edge_csv(p) == [("\ufeffa", "b")]


def test_a_csv_error_after_plain_chunks_names_its_line(tmp_path, field_limit):
    p = write(tmp_path, "e.csv", "source,target\n" + _plain_rows(40) + f"a,{'9' * 20}\n")
    with _chunks_of(64), pytest.raises(MalformedRowError) as info:
        load_edge_csv(p)
    assert str(info.value).startswith(f"{p}:42: field larger than field limit")


def test_a_row_fault_in_a_later_chunk_beats_a_self_loop_in_an_earlier_one(tmp_path):
    p = write(tmp_path, "e.csv", "source,target\na,a\n" + _plain_rows(40) + ",b\n")
    with _chunks_of(64), pytest.raises(MalformedRowError) as info:
        build_graph_chunks(load_edge_chunks(p))
    assert str(info.value) == f"{p}:43: missing source vertex"


@pytest.mark.parametrize("chars", _SMALL + [io_formats.CHUNK])
@pytest.mark.parametrize("rows, line, message", [
    ("a,b\n\nc,d\nb,a\n", 5, "duplicate edge 'b'-'a'"),
    ("a,b\n \n,\nb,b\n", 5, "self-loop at 'b'"),
    ('"a",b\n\nc,d,1\n\nc,e,0\n', 6, "weight 0.0 for 'c'-'e'"),
    ("1,2\n2,3\n3,1\n2,1\n", 5, "duplicate edge '2'-'1'"),
], ids=["blank", "blank-cells", "quoted", "integer"])
def test_a_graph_fault_of_an_edge_file_names_its_line(tmp_path, chars, rows, line, message):
    header = "source,target,weight\n" if ",1\n" in rows else "source,target\n"
    p = write(tmp_path, "e.csv", header + rows)
    with _chunks_of(chars), pytest.raises(RelcentralError) as info:
        load_edge_graph(p)
    assert str(info.value) == f"{p}:{line}: {message}"


def test_a_duplicate_relevance_vertex_across_chunks(tmp_path):
    body = "".join(f"{lab},2\n" for lab in _GRAPH_LABELS) + "b,3\n"
    p = write(tmp_path, "r.csv", "vertex,relevance\n" + body)
    with _chunks_of(8), pytest.raises(MalformedRowError) as info:
        load_relevance_csv(p, _GRAPH)
    assert str(info.value) == f"{p}:9: duplicate vertex 'b'"


def test_reading_and_building_a_large_edge_file_keeps_no_string_per_cell(tmp_path):
    # a ring lattice of 20000 labels and 100000 rows; a whole-file reader
    # that held every cell as a string peaked at 19.8 MiB here
    n = 20000
    u = np.tile(np.arange(n), 5)
    v = (u + np.repeat(np.arange(1, 6), n)) % n
    p = write(tmp_path, "e.csv",
              "source,target\n" + "".join(map("{},{}\n".format, u.tolist(), v.tolist())))
    build_graph_chunks(load_edge_chunks(p))  # first-use allocations out of the count
    tracemalloc.start()
    try:
        g = build_graph_chunks(load_edge_chunks(p))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (g.vertex_count, g.edge_count) == (n, 5 * n)
    assert peak <= 19.8 / 2 * 2**20


# --- integer labels: read from the bytes, numbered through a table ---


# labels the integer path must not read as integers; a quoted cell sends
# the rest of the file to csv.reader
_ODD_LABELS = ("007", "00", "+5", "-3", " 7", "7\t", "\xa07", "1234567890123456789",
               str(10 ** 17),  # 18 digits: an integer label past the table's bound
               "a", "x y", '"5"', '"q,1"')
_GOOD_WEIGHTS = ("", "1", "2.5", " 3 ", "1e3", "0.25")


@st.composite
def _int_label_tables(draw):
    """Text of an edge file whose labels are mostly canonical integers
    below ``span``, with bare, blank and faulty rows among its edges.
    With the table's floor at 0, its bound is 4 entries per label cell
    read: labels below 8 fit it from a file's first row on, larger ones
    may not."""
    weighted = draw(st.booleans())
    span = draw(st.sampled_from([8, 8, 30, 100]))
    odd = draw(st.sampled_from([0, 0, 2, 20]))  # percent of the labels drawn from _ODD_LABELS

    def label(value):
        if draw(st.integers(0, 99)) < odd:
            return draw(st.sampled_from(_ODD_LABELS))
        return str(value)

    pair = st.tuples(st.integers(0, span - 1), st.integers(0, span - 1))
    pairs = draw(st.lists(pair.filter(lambda p: p[0] != p[1]), unique_by=frozenset, max_size=24))
    rows = []
    for a, b in pairs:
        kind = draw(st.sampled_from(["edge"] * 80 + ["bare", "bare", "blank", "no source",
                                                     "loose", "loop", "repeat"]))
        if kind == "loop":
            b = a
        elif kind == "repeat":
            a, b = draw(st.sampled_from(pairs))
        s = "" if kind in ("blank", "no source") else label(a)
        t = "" if kind in ("blank", "bare", "loose") else label(b)
        cells = [s, t]
        if weighted:
            if kind == "loose":  # a weight without a target
                cells.append("2")
            elif t:
                bad = draw(st.integers(0, 79)) == 0
                cells.append(draw(st.sampled_from(("0", "-1", "x") if bad else _GOOD_WEIGHTS)))
            else:
                cells.append("")
        rows.append(",".join(cells))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(["source,target,weight" if weighted else "source,target"] + rows) + eol


@pytest.mark.parametrize("chars", [8, 40, io_formats.CHUNK])
@settings(max_examples=200, deadline=None)
@given(text=_int_label_tables(), floor=st.sampled_from([0, graph._TABLE_FLOOR]))
def test_integer_labels_build_the_graph_of_their_records(tmp_path_factory, chars, text, floor):
    # small chunks: a file spans many, and its labels switch paths mid-file
    p = write(tmp_path_factory.mktemp("e"), "e.csv", text)
    want = graph_outcome(lambda: build_graph(_read_with(p, _edge_rows)))
    with _chunks_of(chars), pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "_TABLE_FLOOR", floor)
        assert graph_outcome(lambda: build_graph_chunks(load_edge_chunks(p))) == want


def string_interner_calls(monkeypatch):
    """Calls of the interner's string path, the dict's column pass."""
    calls, real = [], graph._intern

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(graph, "_intern", spy)
    return calls


@pytest.mark.parametrize("chars", [4096, io_formats.CHUNK])
def test_integer_labels_never_reach_the_string_interner(monkeypatch, chars):
    path = DATA / "ws-lowdiam.edges.csv"
    want = build_graph(load_edge_csv(path))
    calls = string_interner_calls(monkeypatch)
    with _chunks_of(chars):
        chunks = list(load_edge_chunks(path))
        g = build_graph_chunks(chunks)
    assert not calls
    assert len(chunks) > (chars < io_formats.CHUNK)
    assert all(isinstance(src, np.ndarray) and isinstance(tgt, np.ndarray)
               for src, tgt, _ in chunks)
    assert (g.labels, g.edge_records()) == (want.labels, want.edge_records())
    assert g.index_of("0") == 0


def test_a_label_past_the_table_bound_takes_the_string_path(tmp_path, monkeypatch):
    big = str(10 ** 15)
    p = write(tmp_path, "e.csv", f"source,target\n0,{big}\n{big},7\n7,0\n")
    want = build_graph(load_edge_csv(p))
    calls = string_interner_calls(monkeypatch)
    g = build_graph_chunks(load_edge_chunks(p))
    assert calls
    assert g.labels == want.labels == ("0", big, "7")
    assert g.edge_records() == want.edge_records()


def test_a_source_sorted_file_that_names_large_labels_first_stays_on_the_table(
        tmp_path, monkeypatch):
    # each early chunk names labels near 10^5 in a few cells, far past 4
    # table entries per cell read; the table's floor of 2^20 entries keeps
    # the whole file on the integer path
    rows = "".join(f"{s},{99999 - s}\n{s},{50000 + s}\n" for s in range(200))
    p = write(tmp_path, "e.csv", "source,target\n" + rows)
    want = build_graph(load_edge_csv(p))
    calls = string_interner_calls(monkeypatch)
    with _chunks_of(64):
        g = build_graph_chunks(load_edge_chunks(p))
        assert not calls
        assert (g.labels, g.edge_records()) == (want.labels, want.edge_records())
        monkeypatch.setattr(graph, "_TABLE_FLOOR", 0)  # the bound by cells alone turns it away
        build_graph_chunks(load_edge_chunks(p))
        assert calls


# --- integer relevance labels: read as values, found through the graph's table ---


# the labels of an integer-labelled graph: 0 to 11, and one below the table's floor
_INT_VERTICES = (*range(12), 1000000)
_INT_PAIRS = list(zip(_INT_VERTICES, _INT_VERTICES[1:] + _INT_VERTICES[:1]))
_INT_GRAPH = build_graph_chunks([tuple(np.array(c) for c in zip(*_INT_PAIRS)) + (None,)])
_STR_GRAPH = build_graph([(str(a), str(b)) for a, b in _INT_PAIRS])
# vertex cells that are no canonical integer label of that graph; a quoted
# one sends the rest of the file to csv.reader
_ODD_VERTICES = ("007", "00", "+5", " 7", "7\t", "1e3", "-3", "5.0", "x", "12", "999999",
                 "1234567890123456789", str(10 ** 17), '"5"', '"7,"')
_GOOD_VALUES = ("2", "0.5", "1e3", " 3 ", "4.25", "1")
_BAD_VALUES = ("0", "-1", "-0", "inf", "nan", "x", "")


@st.composite
def _int_relevance_tables(draw):
    """Text of a relevance file of the graph on ``_INT_VERTICES``: its
    labels once each, in any order, with odd or repeated vertices, bad
    values and blank rows among them."""
    rows = []
    for v in draw(st.permutations(_INT_VERTICES)):
        kind = draw(st.sampled_from(["row"] * 40 + ["odd", "repeat", "bad", "blank"]))
        if kind == "blank":
            rows.append(draw(st.sampled_from(["", ",", " , "])))
        label = str(v)
        if kind == "odd":
            label = draw(st.sampled_from(_ODD_VERTICES))
        elif kind == "repeat":
            label = str(draw(st.sampled_from(_INT_VERTICES)))
        value = draw(st.sampled_from(_BAD_VALUES if kind == "bad" else _GOOD_VALUES))
        rows.append(f"{label},{value}")
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(["vertex,relevance"] + rows) + eol


@pytest.mark.parametrize("chars", [8, 40, io_formats.CHUNK])
@settings(max_examples=200, deadline=None)
@given(text=_int_relevance_tables())
def test_integer_and_string_relevance_paths_agree(tmp_path_factory, chars, text):
    # small chunks: duplicates within and across chunks, and a switch to
    # the string path mid-file
    p = write(tmp_path_factory.mktemp("r"), "r.csv", text)
    want = outcome(_read_with, p, _relevance_rows, _STR_GRAPH)
    with _chunks_of(chars):
        assert outcome(lambda: load_relevance_csv(p, _STR_GRAPH).values) == want
        assert outcome(lambda: load_relevance_csv(p, _INT_GRAPH).values) == want


def test_integer_relevance_labels_are_read_as_values():
    assert _INT_GRAPH.integer_labels and not _STR_GRAPH.integer_labels
    edges, rel = DATA / "ws-lowdiam.edges.csv", DATA / "ws-lowdiam.relevance.csv"
    g = build_graph_chunks(load_edge_chunks(edges))
    with _chunks_of(1024):
        chunks = list(io_formats._read_chunks(rel, lambda header: None,
                                              lambda row, width: False, ints=1))
        R = load_relevance_csv(rel, g)
    assert len(chunks) > 1 and all(isinstance(c[0], np.ndarray) for c, _, _ in chunks)
    assert "_index" not in vars(g)  # no label dict was built
    np.testing.assert_array_equal(R.values, load_relevance_csv(rel, build_graph(
        load_edge_csv(edges))).values)


# whitespace str.strip removes, ASCII and not
_PADDING = st.lists(st.sampled_from([" ", "\t", "\x0b", "\x0c", "\x1c", "\x1f", "\xa0", "\x85",
                                     "\u2002", "\u2028", "\u3000"]), max_size=2).map("".join)
# text of a cell that keeps its chunk plain and that a UTF-8 file can hold
# (no surrogate)
_CORE = st.text(st.characters(), max_size=3).filter(
    lambda t: not set(t) & set(',"\n\r\x00') and not any("\ud800" <= c <= "\udfff" for c in t))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.tuples(_PADDING, _CORE, _PADDING).map("".join),
                         min_size=2, max_size=2), max_size=10))
def test_plain_chunks_strip_their_cells_like_str_strip(tmp_path_factory, rows):
    p = write(tmp_path_factory.mktemp("s"), "s.csv",
              "a,b\n" + "".join(",".join(row) + "\n" for row in rows))
    chunks = list(io_formats._read_chunks(p, lambda header: None, lambda row, width: False))
    assert [columns for columns, _, _ in chunks] == [
        [[row[j].strip() for row in rows] for j in range(2)]]
