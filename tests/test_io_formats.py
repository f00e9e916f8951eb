import json

import numpy as np
import pytest

from conftest import weighted_ring
from relcentral.centrality import betweenness_reports, harmonic_centrality
from relcentral.errors import (
    MalformedRowError,
    MatrixShapeMismatchError,
    NonzeroDiagonalError,
    UnknownVertexInRelevanceError,
)
from relcentral.graph import build_graph
from relcentral.io_formats import (
    build_result_document,
    export_dot,
    load_edge_csv,
    load_f_matrix_csv,
    load_relevance_csv,
    results_csv_text,
    save_edge_csv,
    save_relevance_csv,
    write_results_json,
)
from relcentral.relevance import RelevanceVector, eval_pair


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
    doc = build_result_document(g, reports_for(g), "ring.csv")
    assert doc.metadata["graph"] == "ring.csv"
    assert doc.metadata["weighted"] is True
    assert doc.metadata["tool"] == "relcentral"
    assert set(doc.vertex_tables) == {"harmonic", "betweenness"}
    assert set(doc.edge_tables) == {"edge-betweenness"}
    assert doc.rankings["vertices"]["betweenness"][0] in ("A", "B")


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
    text = results_csv_text(build_result_document(g, reports_for(g), "x"))
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


def test_export_dot_constant_values_use_midpoint():
    g = build_graph([("a", "b"), ("b", "c"), ("a", "c")])
    vrep, erep = betweenness_reports(g)
    dot = export_dot(g, vrep, erep)
    assert "[width=0.900];" in dot  # 0.3 + 1.2 * 0.5
