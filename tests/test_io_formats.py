import csv
import dataclasses
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import weighted_ring
from relcentral import io_formats
from relcentral.centrality import betweenness_reports, degree_centrality, harmonic_centrality
from relcentral.errors import (
    MalformedRowError,
    MatrixShapeMismatchError,
    NonPositiveWeightError,
    NonzeroDiagonalError,
    UnknownVertexInRelevanceError,
)
from relcentral.graph import build_graph, build_graph_chunks
from relcentral.io_formats import (
    ResultDocument,
    _json_floats,
    _label_order,
    build_result_document,
    export_dot,
    load_edge_csv,
    load_f_matrix_csv,
    load_relevance_csv,
    results_json_pieces,
    save_edge_csv,
    save_relevance_csv,
    write_results_csv,
    write_results_json,
)
from relcentral.relevance import PATH_PROD, RelevanceVector, eval_pair


def csv_text(doc: ResultDocument) -> str:
    out = io.StringIO()
    write_results_csv(doc, out)
    return out.getvalue()


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


# --- edge csv ---


def test_edge_csv_roundtrip_weighted(tmp_path):
    g = weighted_ring()
    p = tmp_path / "g.csv"
    save_edge_csv(g, p)
    g2 = build_graph(load_edge_csv(p))
    assert g2.labels == g.labels
    assert g2.edge_records() == g.edge_records()


def test_edge_csv_roundtrip_with_isolated_vertex(tmp_path):
    g = build_graph([("a", "b"), ("lonely",)])
    p = tmp_path / "g.csv"
    save_edge_csv(g, p)
    text = p.read_text()
    assert "lonely,," in text
    g2 = build_graph(load_edge_csv(p))
    assert g2.labels == g.labels and g2.edge_count == 1


def test_edge_csv_two_column_header(tmp_path):
    p = write(tmp_path, "g.csv", "source,target\na,b\nb,c\n")
    g = build_graph(load_edge_csv(p))
    assert g.edge_count == 2 and not g.weighted


def test_edge_csv_skips_blank_rows(tmp_path):
    p = write(tmp_path, "g.csv", "source,target,weight\na,b,1\n\n ,,\nb,c,2\n")
    assert len(load_edge_csv(p)) == 2


def test_edge_csv_header_errors(tmp_path):
    with pytest.raises(MalformedRowError, match="header"):
        load_edge_csv(write(tmp_path, "h1.csv", "from,to\na,b\n"))
    with pytest.raises(MalformedRowError, match="header"):
        load_edge_csv(write(tmp_path, "h2.csv", ""))


def test_edge_csv_row_errors_name_the_line(tmp_path):
    with pytest.raises(MalformedRowError, match=":3:"):
        load_edge_csv(write(tmp_path, "r.csv", "source,target,weight\na,b,1\n,b,1\n"))
    with pytest.raises(MalformedRowError, match="weight given without"):
        load_edge_csv(write(tmp_path, "w.csv", "source,target,weight\na,,2\n"))
    with pytest.raises(MalformedRowError, match="weight"):
        load_edge_csv(write(tmp_path, "f.csv", "source,target,weight\na,b,fast\n"))
    err = None
    try:
        load_edge_csv(write(tmp_path, "n.csv", "source,target,weight\na,b,1\nc,d,9,9\n"))
    except MalformedRowError as e:
        err = e
    assert err is not None and err.line_no == 3


# --- relevance csv ---


def test_relevance_roundtrip(tmp_path):
    g = build_graph([("a", "b"), ("b", "c")])
    R = RelevanceVector(np.array([1.5, 1.0, 2.25]))
    p = tmp_path / "r.csv"
    save_relevance_csv(R, g, p)
    R2 = load_relevance_csv(p, g)
    np.testing.assert_array_equal(R2.values, R.values)


def test_relevance_missing_vertices_default_to_one(tmp_path):
    g = build_graph([("a", "b"), ("b", "c")])
    p = write(tmp_path, "r.csv", "vertex,relevance\nb,4\n")
    np.testing.assert_array_equal(load_relevance_csv(p, g).values, [1.0, 4.0, 1.0])


def test_relevance_unknown_vertex_cites_location(tmp_path):
    g = build_graph([("a", "b")])
    p = write(tmp_path, "r.csv", "vertex,relevance\na,2\nghost,3\n")
    with pytest.raises(UnknownVertexInRelevanceError, match=r":3:"):
        load_relevance_csv(p, g)


def test_relevance_rejects_duplicates_and_bad_values(tmp_path):
    g = build_graph([("a", "b")])
    with pytest.raises(MalformedRowError, match="duplicate"):
        load_relevance_csv(write(tmp_path, "d.csv", "vertex,relevance\na,2\na,3\n"), g)
    with pytest.raises(MalformedRowError, match="positive"):
        load_relevance_csv(write(tmp_path, "z.csv", "vertex,relevance\na,0\n"), g)
    with pytest.raises(MalformedRowError, match="positive"):
        load_relevance_csv(write(tmp_path, "neg.csv", "vertex,relevance\na,-1\n"), g)
    with pytest.raises(MalformedRowError):
        load_relevance_csv(write(tmp_path, "nan.csv", "vertex,relevance\na,wat\n"), g)
    with pytest.raises(MalformedRowError, match="header"):
        load_relevance_csv(write(tmp_path, "h.csv", "node,value\na,1\n"), g)


# --- matrix csv ---


def matrix_text(order=("a", "b", "c")):
    vals = {("a", "b"): 2, ("a", "c"): 3, ("b", "a"): 4,
            ("b", "c"): 5, ("c", "a"): 6, ("c", "b"): 7}
    lines = ["," + ",".join(order)]
    for r in order:
        cells = [str(vals.get((r, c), 0)) for c in order]
        lines.append(r + "," + ",".join(cells))
    return "\n".join(lines) + "\n"


def test_matrix_loads_in_any_label_order(tmp_path):
    g = build_graph([("a", "b"), ("b", "c")])
    f1 = load_f_matrix_csv(write(tmp_path, "m1.csv", matrix_text()), g)
    f2 = load_f_matrix_csv(
        write(tmp_path, "m2.csv", matrix_text(order=("c", "a", "b"))), g
    )
    np.testing.assert_array_equal(f1.matrix, f2.matrix)
    R = RelevanceVector.ones(3)
    assert eval_pair(f1, g.index_of("a"), g.index_of("b"), R) == 2.0
    assert eval_pair(f1, g.index_of("b"), g.index_of("a"), R) == 4.0


def test_matrix_shape_and_label_errors(tmp_path):
    g = build_graph([("a", "b"), ("b", "c")])
    with pytest.raises(MatrixShapeMismatchError):
        load_f_matrix_csv(write(tmp_path, "m.csv", ",a,b\na,0,1\nb,1,0\n"), g)
    bad_label = matrix_text().replace("c,", "q,")
    with pytest.raises(MatrixShapeMismatchError):
        load_f_matrix_csv(write(tmp_path, "m2.csv", bad_label), g)
    with pytest.raises(MalformedRowError, match="duplicate"):
        load_f_matrix_csv(
            write(tmp_path, "m3.csv", ",a,b,c\na,0,1,1\na,1,0,1\nc,1,1,0\n"), g
        )


def test_matrix_diagonal_and_negative_entries(tmp_path):
    g = build_graph([("a", "b"), ("b", "c")])
    diag = matrix_text().replace("b,4,0,5", "b,4,9,5")
    with pytest.raises(NonzeroDiagonalError):
        load_f_matrix_csv(write(tmp_path, "m.csv", diag), g)
    neg = matrix_text().replace("b,4,0,5", "b,-4,0,5")
    with pytest.raises(MalformedRowError, match="negative"):
        load_f_matrix_csv(write(tmp_path, "m2.csv", neg), g)


# --- result documents ---


def reports_for(g):
    vrep, erep = betweenness_reports(g)
    return [harmonic_centrality(g), vrep, erep]


def test_result_document_layout():
    g = weighted_ring()
    reports = reports_for(g)
    doc = build_result_document(g, reports, "ring.csv")
    assert doc.metadata["graph"] == "ring.csv"
    assert doc.metadata["weighted"] is True
    assert doc.metadata["tool"] == "relcentral"
    assert doc.reports == tuple(reports)
    data = json.loads(write_results_json(doc))
    assert list(data) == ["edges", "metadata", "rankings", "vertices"]
    assert list(data["vertices"]) == ["betweenness", "harmonic"]
    assert list(data["vertices"]["harmonic"]) == ["A", "B", "C", "D"]
    assert list(data["edges"]) == ["edge-betweenness"]
    assert data["edges"]["edge-betweenness"][0] == {
        "source": "A", "target": "B", "value": pytest.approx(reports[2].values[0])}
    assert data["rankings"]["vertices"]["betweenness"][0] in ("A", "B")
    assert data["rankings"]["edges"]["edge-betweenness"][0] == list(reports[2].ranking[0])


def test_results_json_stable_and_rounded():
    g = weighted_ring()
    doc = build_result_document(g, reports_for(g), "ring.csv")
    blob1 = write_results_json(doc)
    blob2 = write_results_json(build_result_document(g, reports_for(g), "ring.csv"))
    assert blob1 == blob2
    data = json.loads(blob1)
    assert data["vertices"]["harmonic"]["A"] == pytest.approx(11 / 3, abs=1e-9)
    # 12 significant digits, not raw float repr
    assert len(repr(data["vertices"]["harmonic"]["A"]).replace(".", "")) <= 13


def test_results_csv_layout():
    g = weighted_ring()
    text = csv_text(build_result_document(g, reports_for(g), "x"))
    lines = text.splitlines()
    assert lines[0] == "metric,source,target,value"
    assert any(line.startswith("betweenness,A,,") for line in lines)
    assert any(line.startswith("edge-betweenness,A,B,") for line in lines)


def test_export_dot_encodes_values():
    g = weighted_ring()
    vrep, erep = betweenness_reports(g)
    dot = export_dot(g, vrep, erep)
    assert dot.startswith("graph relcentral {")
    assert dot.rstrip().endswith("}")
    assert '"A" [width=1.500];' in dot  # max vertex value
    assert '"C" [width=0.300];' in dot  # min vertex value
    # max edge black, min edge full cyan
    assert "#000000" in dot and "#00ffff" in dot


def test_export_dot_escapes_backslash_quote_and_newline():
    g = build_graph([('a\\b"c\nd', "plain")])
    dot = export_dot(g)
    assert '"a\\\\b\\"c\\nd";' in dot
    assert '"a\\\\b\\"c\\nd" -- "plain";' in dot
    # a raw newline inside a label would start a line of its own
    assert all(line.startswith(("graph", "  ", "}")) for line in dot.splitlines())


def test_export_dot_without_reports_lists_structure():
    g = build_graph([('we"ird', "b")])
    dot = export_dot(g)
    assert '"we\\"ird" -- "b";' in dot


@pytest.mark.parametrize("records", [[], [("a",), ("b",)]], ids=["empty", "bare-vertices"])
def test_export_dot_without_edges_lists_the_vertices(records):
    g = build_graph(records)
    vrep, erep = betweenness_reports(g)
    assert len(erep.values) == 0
    dot = export_dot(g, vrep, erep)
    nodes = "".join(f'  "{lab}" [width=0.900];\n' for lab in g.labels)
    assert dot == "graph relcentral {\n  node [shape=circle, fixedsize=true];\n" + nodes + "}\n"


def test_export_dot_constant_values_use_midpoint():
    g = build_graph([("a", "b"), ("b", "c"), ("a", "c")])
    vrep, erep = betweenness_reports(g)
    dot = export_dot(g, vrep, erep)
    assert "[width=0.900];" in dot  # 0.3 + 1.2 * 0.5


# --- edge csv: which line and which check decide, pinned for the column form ---


HEADER3 = "source,target,weight\n"


@pytest.mark.parametrize(
    "body, line_no, message",
    [
        # the first faulty line wins, whatever its fault
        ("a,b,1\n,b,1\nc,,2\n", 3, "missing source vertex"),
        ("a,b,1\nc,,2\n,b,1\n", 3, "weight given without a target vertex"),
        ("a,b,x\n,b,1\n", 2, "bad weight 'x'"),
        (",b,1\na,b,x\n", 2, "missing source vertex"),
        ("a,b,1,1\n,b,1\n", 2, "too many fields (4)"),
        ("a,b,1\n,b,1\nc,d,1,1\n", 3, "missing source vertex"),
        ("a,b,x\nc,d,1,1\n", 2, "bad weight 'x'"),
        ("a,b,1\nc,d,1,1\na,b,x\n", 3, "too many fields (4)"),
        ("a,b,1\nc,,2\nd,e,1,2,3\n", 3, "weight given without a target vertex"),
        ("a,b,2\nc,d,3\ne,f,nope\ng,,1\n", 4, "bad weight 'nope'"),
        # two faults on one line: fields, then source, then target, then weight
        (",,2\n", 2, "missing source vertex"),
        (",b,x\n", 2, "missing source vertex"),
        (",b,1,1\n", 2, "too many fields (4)"),
        ("a,,x\n", 2, "weight given without a target vertex"),
        ("a,b,x,y\n", 2, "too many fields (4)"),
        # line numbers count skipped blank rows; ',,,,' is blank despite 5 fields
        ("a,b,1\n\n   ,  ,\n,,,,\nc,d,zz\n", 6, "bad weight 'zz'"),
        (",,,,\n,b,1\n", 3, "missing source vertex"),
        # a quoted newline keeps one record number for two physical lines
        ('"a\nb",c,1\nx,,y\n', 3, "weight given without a target vertex"),
        # the weight text is reported stripped
        ("a,b,  1.2.3  \n", 2, "bad weight '1.2.3'"),
        ("a,b,0x10\n", 2, "bad weight '0x10'"),
    ],
)
def test_edge_csv_first_faulty_line_decides(tmp_path, body, line_no, message):
    p = write(tmp_path, "e.csv", HEADER3 + body)
    with pytest.raises(MalformedRowError) as info:
        load_edge_csv(p)
    assert info.value.line_no == line_no
    assert str(info.value) == f"{p}:{line_no}: {message}"


def test_edge_csv_two_column_header_rejects_a_weight_field(tmp_path):
    p = write(tmp_path, "e.csv", "source,target\na,b\n\nc,d,1\n")
    with pytest.raises(MalformedRowError) as info:
        load_edge_csv(p)
    assert str(info.value) == f"{p}:4: too many fields (3)"
    # blank rows of any width are still skipped
    p = write(tmp_path, "b.csv", "source,target\na,b\n,,\n , , , \nc,d\n")
    assert load_edge_csv(p) == [("a", "b"), ("c", "d")]
    # bare vertices among unweighted edges
    p = write(tmp_path, "v.csv", "source,target\na,b\nlonely\nc,\nd,e\n")
    assert load_edge_csv(p) == [("a", "b"), ("lonely",), ("c",), ("d", "e")]


def test_edge_csv_record_shapes_and_stripping(tmp_path):
    body = (
        '"x,1","y ,z",2\n'     # quoted labels keep their commas
        "  a , b ,  3 \n"       # cells are stripped
        '" q ",r\n'             # quoted cells too
        "lonely\n"              # one field: a bare vertex
        "solo,\n"
        "alone,,\n"
        "s,t,\n"                # empty weight: an unweighted edge
        ",,\n"
    )
    records = load_edge_csv(write(tmp_path, "e.csv", HEADER3 + body))
    assert records == [
        ("x,1", "y ,z", 2.0), ("a", "b", 3.0), ("q", "r"),
        ("lonely",), ("solo",), ("alone",), ("s", "t"),
    ]
    assert all(type(r) is tuple for r in records)
    assert type(records[0][2]) is float
    g = build_graph(records)
    assert g.labels == ("x,1", "y ,z", "a", "b", "q", "r", "lonely", "solo", "alone", "s", "t")
    # the records are a list, so they can be built twice
    assert build_graph(records).edge_records() == g.edge_records()


@pytest.mark.parametrize(
    "text, value",
    [("1e3", 1000.0), (" 2 ", 2.0), ("1_000", 1000.0), ("2.5E-1", 0.25),
     (".5", 0.5), ("+7", 7.0), ("-1", -1.0), ("1e999", float("inf")),
     ("nan", None), ("inf", float("inf")), ("-Infinity", float("-inf"))],
)
def test_edge_csv_weights_parse_as_python_floats(tmp_path, text, value):
    (rec,) = load_edge_csv(write(tmp_path, "e.csv", f"{HEADER3}a,b,{text}\n"))
    assert rec[:2] == ("a", "b")
    if value is None:
        assert np.isnan(rec[2])
    else:
        assert rec[2] == value
    # non-positive or non-finite weights load, and build_graph rejects them
    if not (np.isfinite(rec[2]) and rec[2] > 0):
        with pytest.raises(NonPositiveWeightError, match="record 0"):
            build_graph([rec])


# --- relevance csv: which line and which check decide ---


@pytest.mark.parametrize(
    "body, error, line_no, message",
    [
        ("a,2\nb\n", MalformedRowError, 3, "expected 2 fields, got 1"),
        ("a,2,3\n", MalformedRowError, 2, "expected 2 fields, got 3"),
        ("ghost,1,2\n", MalformedRowError, 2, "expected 2 fields, got 3"),
        ("ghost,x\n", UnknownVertexInRelevanceError, 2, "vertex 'ghost' is not in the graph"),
        (",3\n", UnknownVertexInRelevanceError, 2, "vertex '' is not in the graph"),
        ("a,1\na,x\n", MalformedRowError, 3, "duplicate vertex 'a'"),
        ("a,1\na,-1\n", MalformedRowError, 3, "duplicate vertex 'a'"),
        ("a,1\na,1\nb\n", MalformedRowError, 3, "duplicate vertex 'a'"),
        ("a,x\n", MalformedRowError, 2, "bad relevance 'x'"),
        ("a, 1.2.3 \n", MalformedRowError, 2, "bad relevance '1.2.3'"),
        ("a,0\nb,x\n", MalformedRowError, 2, "relevance must be positive and finite, got 0"),
        ("a,x\nb,0\n", MalformedRowError, 2, "bad relevance 'x'"),
        ("a,1\nb,0\nghost,1\n", MalformedRowError, 3,
         "relevance must be positive and finite, got 0"),
        ("a,1\nghost,1\nb,0\n", UnknownVertexInRelevanceError, 3,
         "vertex 'ghost' is not in the graph"),
        ("b,2\nghost,1\nb,1\n", UnknownVertexInRelevanceError, 3,
         "vertex 'ghost' is not in the graph"),
        ("b,2\nc,-0.5\nb,1,1\n", MalformedRowError, 3,
         "relevance must be positive and finite, got -0.5"),
        ("a,1\n\n,\n , \n,,,\nb,nan\n", MalformedRowError, 7,
         "relevance must be positive and finite, got nan"),
        ("a, inf \n", MalformedRowError, 2, "relevance must be positive and finite, got inf"),
        ("a,-inf\n", MalformedRowError, 2, "relevance must be positive and finite, got -inf"),
    ],
)
def test_relevance_csv_first_faulty_line_decides(tmp_path, body, error, line_no, message):
    g = build_graph([("a", "b"), ("b", "c")])
    p = write(tmp_path, "r.csv", "vertex,relevance\n" + body)
    with pytest.raises(error) as info:
        load_relevance_csv(p, g)
    assert type(info.value) is error
    assert str(info.value) == f"{p}:{line_no}: {message}"


def test_relevance_csv_quoting_stripping_and_float_syntax(tmp_path):
    g = build_graph([("x,1", "b"), ("b", " c")])
    body = '"x,1",1e1\n  b ,  1_5 \n\n,,\n'
    R = load_relevance_csv(write(tmp_path, "r.csv", "vertex,relevance\n" + body), g)
    np.testing.assert_array_equal(R.values, [10.0, 15.0, 1.0])
    # labels are stripped before lookup, so ' c' cannot be named
    with pytest.raises(UnknownVertexInRelevanceError, match="vertex 'c'"):
        load_relevance_csv(write(tmp_path, "s.csv", 'vertex,relevance\n" c",2\n'), g)


# --- result bytes: the writer against the json module's indent encoder ---


def reference_payload(doc) -> dict:
    """The result as a dict of rows: one dict per edge row, one list per
    ranked edge, what the json module and the csv module are given."""
    vertices, edges, rankings = {}, {}, {"vertices": {}, "edges": {}}
    for rep in doc.reports:
        name = rep.metric.value
        values = np.asarray(rep.values, dtype=np.float64).tolist()
        if rep.kind == "vertex":
            vertices[name] = dict(zip(rep.ids, values))
            rankings["vertices"][name] = list(rep.ranking)
        else:
            edges[name] = [
                {"source": a, "target": b, "value": v} for (a, b), v in zip(rep.ids, values)
            ]
            rankings["edges"][name] = [[a, b] for a, b in rep.ranking]
    return {"metadata": doc.metadata, "vertices": vertices, "edges": edges, "rankings": rankings}


def _round12(x):
    if isinstance(x, float):
        return float(f"{x:.12g}")
    if isinstance(x, dict):
        return {k: _round12(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_round12(v) for v in x]
    return x


def reference_json(doc) -> bytes:
    payload = _round12(reference_payload(doc))
    return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode("utf-8")


def reference_csv(doc) -> str:
    payload = reference_payload(doc)
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(["metric", "source", "target", "value"])
    for metric in sorted(payload["vertices"]):
        w.writerows([metric, label, "", f"{val:.12g}"]
                    for label, val in payload["vertices"][metric].items())
    for metric in sorted(payload["edges"]):
        w.writerows([metric, row["source"], row["target"], f"{row['value']:.12g}"]
                    for row in payload["edges"][metric])
    return out.getvalue()


_labels = st.text(
    alphabet=st.one_of(st.sampled_from('"\\,\n\t\x00 /aZ{}é'), st.characters()),
    min_size=1,
    max_size=6,
)
_METRICS = ("degree", "harmonic", "betweenness", "edge-betweenness")


@st.composite
def _documents(draw):
    """The result document of a graph with hard labels, random relevance
    (values from 1e-3 to 1e7, so results span many magnitudes) and a
    random subset of the metrics in random order."""
    labels = draw(st.lists(_labels, min_size=1, max_size=8, unique=True))
    n = len(labels)
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                          .filter(lambda p: p[0] < p[1]), unique=True, max_size=12))
    weights = draw(st.one_of(st.none(), st.lists(st.sampled_from([0.5, 1.0, 1.5, 3.0]),
                                                 min_size=len(pairs), max_size=len(pairs))))
    records = [(labels[a], labels[b]) if weights is None else (labels[a], labels[b], w)
               for (a, b), w in zip(pairs, weights or [None] * len(pairs))]
    g = build_graph(records, vertices=labels)
    R = RelevanceVector(np.array(draw(st.lists(
        st.floats(1e-3, 1e7), min_size=n, max_size=n))))
    reports = []
    for metric in draw(st.lists(st.sampled_from(_METRICS), unique=True)):
        if metric == "degree":
            reports.append(degree_centrality(g, R))
        elif metric == "harmonic":
            reports.append(harmonic_centrality(g, R))
        else:
            vrep, erep = betweenness_reports(g, R)
            reports.append(vrep if metric == "betweenness" else erep)
    return build_result_document(g, reports, draw(_labels))


# a table is written, and its floats formatted, _PIECE items at a time: at
# 1 and 3 most tables of the strategy cross piece boundaries
@pytest.mark.parametrize("piece", [1, 3, io_formats._PIECE])
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_documents())
def test_results_json_bytes_match_the_json_module(monkeypatch, piece, doc):
    monkeypatch.setattr(io_formats, "_PIECE", piece)
    assert write_results_json(doc) == reference_json(doc)
    assert "".join(results_json_pieces(doc)).encode("ascii") == write_results_json(doc)
    assert csv_text(doc) == reference_csv(doc)


def test_results_csv_formats_its_floats_a_piece_at_a_time(monkeypatch):
    g = build_graph([(f"v{i}", f"v{i + 1}") for i in range(20)])
    R = RelevanceVector(np.linspace(1.0, 3.0, g.vertex_count))
    doc = build_result_document(g, [degree_centrality(g, R)], "path.csv")
    want = reference_csv(doc)
    sizes, g12 = [], io_formats._g12
    monkeypatch.setattr(io_formats, "_PIECE", 3)
    monkeypatch.setattr(io_formats, "_g12", lambda values: sizes.append(len(values)) or g12(values))
    assert csv_text(doc) == want
    assert sum(sizes) == g.vertex_count and max(sizes) == 3


def _escaped_edge_report():
    """The edge betweenness report of a graph whose labels need escaping,
    with ties, so that its ranking is not its edge order."""
    labels = ['a"b', "c\\d", "é", "☃", "plain", "x\ny", "\t"]
    g = build_graph([(labels[i], labels[j], 1.0 + (i + j) % 2) for i, j in
                     [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 0), (0, 3), (2, 5)]])
    return g, betweenness_reports(g, RelevanceVector(np.linspace(1.0, 4.0, g.vertex_count)))[1]


@pytest.mark.parametrize("piece", [1, 3, io_formats._PIECE])
def test_edge_tables_of_the_graphs_edges_take_one_label_text_per_vertex(monkeypatch, piece):
    g, erep = _escaped_edge_report()
    assert erep.ids is g.edge_ids and erep.ranking != erep.ids
    doc = build_result_document(g, [erep], "g")
    want = reference_json(doc)
    monkeypatch.setattr(io_formats, "_PIECE", piece)
    calls, json_str = [], io_formats._json_str
    monkeypatch.setattr(io_formats, "_json_str", lambda s: calls.append(s) or json_str(s))
    assert write_results_json(doc) == want
    # one per vertex, and the metric's name above each of its two tables
    assert sorted(calls) == sorted(g.labels + ("edge-betweenness",) * 2)


@pytest.mark.parametrize("piece", [1, 3, io_formats._PIECE])
def test_edge_tables_of_other_ids_or_rankings_take_each_rows_labels(monkeypatch, piece):
    g, erep = _escaped_edge_report()
    monkeypatch.setattr(io_formats, "_PIECE", piece)
    reports = [
        dataclasses.replace(erep, ids=tuple(g.edge_labels())),  # equal, not the graph's tuple
        dataclasses.replace(erep, ranking=erep.ranking[::-1]),  # not the report's order
        dataclasses.replace(erep, ids=erep.ids[::-1], values=erep.values[::-1].copy()),
    ]
    for rep in reports:
        for doc in (build_result_document(g, [rep], "g"), ResultDocument({}, (rep,))):
            assert write_results_json(doc) == reference_json(doc)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("kind", ["vertex", "edge"])
def test_results_refuse_a_non_finite_value(bad, kind):
    # _make_report refuses one, so only a report built by hand can hold it
    g = weighted_ring()
    rep = reports_for(g)[1 if kind == "vertex" else 2]
    values = rep.values.copy()
    values[-1] = bad
    doc = build_result_document(g, [dataclasses.replace(rep, values=values)], "g")
    with pytest.raises(ValueError, match="non-finite"):
        results_json_pieces(doc)  # at the call, before any piece
    with pytest.raises(ValueError, match="non-finite"):
        write_results_csv(doc, io.StringIO())


_flat_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=1e11, max_value=1e17),  # where .12g and repr switch notation
    st.floats(min_value=-1e17, max_value=-1e11),
    st.floats(min_value=-2.3e-308, max_value=2.3e-308),  # subnormals
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 999999999999.5,
                     9999999999999999.0, 1e16, 1e12, 1e-5, 1e-4, 0.000099999999999999]),
    st.integers(-10**17, 10**17).map(float),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_flat_floats, min_size=1, max_size=12))
def test_json_floats_match_float_repr_of_the_12_digit_value(values):
    want = [float.__repr__(float(f"{x:.12g}")) for x in values]
    assert _json_floats(np.array(values)) == want


def test_results_json_bytes_match_for_every_metric_and_f():
    g = weighted_ring()
    for rel in (None, RelevanceVector(np.array([1.5, 3.25, 1.0, 7.125]))):
        docs = [build_result_document(g, reports_for(g), "ring.csv"),
                build_result_document(g, [], "empty.csv")]
        if rel is not None:
            vrep, erep = betweenness_reports(g, rel, PATH_PROD)
            docs.append(build_result_document(
                g, [degree_centrality(g, rel), harmonic_centrality(g, rel), vrep, erep], "g"))
        for doc in docs:
            assert write_results_json(doc) == reference_json(doc)


# canonical integer labels, with the prefixes that order by digit count
_int_labels = st.lists(st.one_of(st.sampled_from([0, 1, 9, 10, 11, 99, 100, 101, 1000, 2**20 - 1]),
                                 st.integers(0, 2**20 - 1), st.integers(0, 10**18 - 1)),
                       unique=True, max_size=40)


@settings(max_examples=300, deadline=None)
@given(_int_labels)
def test_integer_label_order_is_the_order_of_their_text(values):
    labels = tuple(map(str, values))
    order = _label_order(labels, np.array(values, dtype=np.int64))
    assert [labels[i] for i in order.tolist()] == sorted(labels)
    # a graph of the labels within the table's floor keeps their values,
    # and its document lists the vertex rows in the same order
    small = [x for x in values if x < 2**20]
    if len(small) < 2:
        return
    g = build_graph_chunks([(np.array(small[:-1]), np.array(small[1:]), None)])
    assert g._values is not None
    doc = build_result_document(g, [degree_centrality(g), harmonic_centrality(g)], "g")
    text = write_results_json(doc)
    assert list(json.loads(text)["vertices"]["harmonic"]) == sorted(map(str, small))
    assert text == reference_json(doc)


def test_result_version_falls_back_to_the_package_version():
    import relcentral

    g = weighted_ring()
    assert build_result_document(g, [], "g").metadata["version"] == relcentral.__version__


def test_pyproject_version_is_the_package_version():
    import relcentral

    pyproject = Path(relcentral.__file__).resolve().parents[2] / "pyproject.toml"
    found = re.findall(r'^version\s*=\s*"([^"]*)"', pyproject.read_text(), re.MULTILINE)
    assert found == [relcentral.__version__]


# --- result csv ---


def test_results_csv_quotes_labels_and_reads_back():
    labels = ("x,1", 'say "hi"', "line\nbreak", "plain")
    g = build_graph([(labels[0], labels[1]), (labels[1], labels[2]), (labels[2], labels[3])])
    vrep, erep = betweenness_reports(g)
    doc = build_result_document(g, [degree_centrality(g), vrep, erep], "g.csv")
    rows = list(csv.reader(io.StringIO(csv_text(doc))))
    assert rows[0] == ["metric", "source", "target", "value"]
    assert all(len(r) == 4 for r in rows)
    degree = {r[1]: float(r[3]) for r in rows if r[0] == "degree"}
    assert degree == {lab: pytest.approx(doc.reports[0].value_of(lab)) for lab in labels}
    assert all(r[2] == "" for r in rows if r[0] == "degree")
    edges = [(r[1], r[2]) for r in rows if r[0] == "edge-betweenness"]
    assert edges == list(zip(labels, labels[1:]))
