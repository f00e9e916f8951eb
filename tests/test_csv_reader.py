"""The column readers of io_formats against row-by-row csv.reader references.

Edge and relevance files take one of two paths: a text that csv.reader
would read as ``str.split(",")`` of each line, every line as wide as the
header, is split in one pass; any other goes through csv.reader. Both
must give the records, values and errors of the references below, which
read one csv.reader row at a time.
"""

import csv
import math
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relcentral import io_formats
from relcentral.errors import (
    MalformedRowError,
    MatrixShapeMismatchError,
    NonzeroDiagonalError,
    UnknownVertexInRelevanceError,
)
from relcentral.graph import build_graph, build_graph_chunks
from relcentral.io_formats import (
    _plain_cells,
    load_edge_chunks,
    load_edge_csv,
    load_f_matrix_csv,
    load_relevance_csv,
)

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
    try:
        g = fn()
    except Exception as exc:
        return type(exc), str(exc)
    return g.labels, g.edge_records()


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


# --- matrix f ---


_MATRIX_GRAPH = build_graph([("a", "b"), ("b", "c")])


@st.composite
def _matrices(draw):
    order = draw(st.permutations(["a", "b", "c"]))
    lines = ["," + ",".join(order)]
    for _ in range(draw(st.sampled_from([3, 3, 3, 2, 4]))):
        label = draw(st.sampled_from(["a", "b", "c", " b ", "q"]))
        cells = draw(st.lists(st.sampled_from(["0", "1", "2.5", "-1", "x", "nan", " 3 ", "-0"]),
                              min_size=3, max_size=3))
        if draw(st.integers(0, 9)) == 0:
            cells = cells[:draw(st.integers(0, 4))]
        lines.append(",".join([label] + cells))
    return "\n".join(lines) + "\n"


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
