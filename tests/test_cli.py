import argparse
import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relcentral
import relcentral.cli as cli
from relcentral import GeneratorConfig, assign_relevance, experiments, io_formats, watts_strogatz
from relcentral._batched import BLOCK
from relcentral.centrality import (
    CentralityReport,
    Metric,
    _make_report,
    betweenness_reports,
    degree_centrality,
    harmonic_centrality,
)
from relcentral.cli import EXIT_COMPUTE, EXIT_INPUT, EXIT_OK, _print_top10, main
from relcentral.errors import SigmaOverflowError
from relcentral.graph import build_graph, build_graph_chunks
from relcentral.io_formats import save_edge_csv, save_relevance_csv
from relcentral.relevance import RelevanceFunction, Variant

DATA = Path(__file__).parent / "data"
RING = "source,target\nA,B\nB,C\nC,D\nA,D\n"
WRING = "source,target,weight\nA,B,0.5\nB,C,1\nC,D,1\nA,D,1\n"
REL = "vertex,relevance\nA,2\n"


def put(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_compute_prints_rankings(tmp_path, capsys):
    edges = put(tmp_path, "g.csv", RING)
    assert main(["compute", edges, "--metric", "degree"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "degree (f=product, relevance=uniform)" in out
    assert "1. A  2" in out


@pytest.mark.parametrize("kind", ["vertex", "edge"])
def test_top10_prints_the_values_of_the_ranking(capsys, kind):
    g = build_graph([(f"v{i}", f"v{(i + 1) % 25}") for i in range(25)])  # 25 vertices and edges
    values = np.array([3.0, 1.0, 3.0, 0.5] * 6 + [7.25]) / 3.0  # ties across the cut
    metric = Metric.DEGREE if kind == "vertex" else Metric.EDGE_BETWEENNESS
    rep = _make_report(metric, g, values, RelevanceFunction(Variant.PRODUCT), "uniform")
    _print_top10(rep)
    lines = capsys.readouterr().out.splitlines()[1:]
    names = [e if kind == "vertex" else f"{e[0]} -- {e[1]}" for e in rep.ranking[:10]]
    assert lines == [f"  {pos:2d}. {name}  {rep.value_of(e):.6g}"
                     for pos, (name, e) in enumerate(zip(names, rep.ranking), start=1)]


def _full_sort_top10(rep: CentralityReport) -> None:
    """What _print_top10 printed when it sorted every value."""
    print(f"{rep.metric.value} (f={rep.f_label}, relevance={rep.relevance_source})")
    top = rep.values[np.argsort(-rep.values, kind="stable")[:10]].tolist()
    for pos, (element, value) in enumerate(zip(rep.ranking, top), start=1):
        name = element if rep.kind == "vertex" else f"{element[0]} -- {element[1]}"
        print(f"  {pos:2d}. {name}  {value:.6g}")


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.5, 3.0, 1e-9, 7.0]) | st.floats(0.0, 4.0),
                max_size=40))
def test_top10_prints_what_a_full_sort_printed(values):
    # many ties, signed zeros, fewer than ten values and none at all
    g = build_graph([], vertices=[f"v{i}" for i in range(len(values))])
    rep = _make_report(Metric.DEGREE, g, np.array(values, dtype=np.float64),
                       RelevanceFunction(Variant.PRODUCT), "uniform")
    printed = []
    for show in (_print_top10, _full_sort_top10):
        out = io.StringIO()
        with redirect_stdout(out):
            show(rep)
        printed.append(out.getvalue().encode())
    assert printed[0] == printed[1]


def test_degree_request_on_integer_labels_builds_no_label_dict(tmp_path, monkeypatch):
    graphs = []
    monkeypatch.setattr(io_formats, "build_graph_chunks",
                        lambda chunks: graphs.append(build_graph_chunks(chunks)) or graphs[-1])
    rel = DATA / "ws-lowdiam.relevance.csv"
    # the same file with its last vertex quoted: that chunk is read as strings
    quoted = tmp_path / rel.name  # the same name: the result's metadata names it
    quoted.write_bytes(re.sub(rb"\n(\d+),([^\n]*\n)$", rb'\n"\1",\2', rel.read_bytes()))
    outs = []
    for path in (rel, quoted):
        outs.append(tmp_path / f"degree-{len(outs)}.json")
        assert main(["compute", str(DATA / "ws-lowdiam.edges.csv"), "--relevance", str(path),
                     "--metric", "degree", "--out", str(outs[-1])]) == EXIT_OK
    assert "_index" not in vars(graphs[0])
    assert "_index" in vars(graphs[1])
    assert outs[0].read_bytes() == outs[1].read_bytes()


@pytest.mark.parametrize("fmt", ["json", "csv", "dot"])
def test_compute_all_builds_no_edge_label_tuple_and_no_ranking(tmp_path, monkeypatch, fmt):
    # the edge label pairs and a report's ranking are cached when first
    # read, so a read leaves them in the graph's or the report's __dict__
    docs, build = [], io_formats.build_result_document
    monkeypatch.setattr(io_formats, "build_result_document",
                        lambda *args: docs.append(build(*args)) or docs[-1])
    name = DATA / "ws-lowdiam"
    out = tmp_path / f"res.{fmt}"
    assert main(["compute", f"{name}.edges.csv", "--relevance", f"{name}.relevance.csv",
                 "--metric", "all", "--format", fmt, "--out", str(out)]) == EXIT_OK
    (doc,) = docs
    assert [rep.metric.value for rep in doc.reports] == \
        ["degree", "harmonic", "betweenness", "edge-betweenness"]
    assert "edge_ids" not in vars(doc.graph)
    assert not any("ranking" in vars(rep) for rep in doc.reports)
    # the spies see a read
    assert doc.reports[-1].ranking
    assert "edge_ids" in vars(doc.graph) and "ranking" in vars(doc.reports[-1])


def test_main_builds_its_parser_once(tmp_path, monkeypatch, capsys):
    parsers, parse = [], argparse.ArgumentParser.parse_args
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args",
                        lambda self, *args: parsers.append(self) or parse(self, *args))
    edges, rel = put(tmp_path, "g.csv", RING), put(tmp_path, "r.csv", REL)
    results = []
    for workers in ("1", "0", "1"):  # a rejected request between two equal ones
        out = tmp_path / f"res{len(results)}.json"
        code = main(["compute", edges, "--relevance", rel, "--workers", workers, "--out", str(out)])
        results.append((code, out.read_bytes() if out.exists() else None, capsys.readouterr().out))
    assert len(parsers) == 3 and parsers[0] is parsers[1] is parsers[2]
    assert results[1] == (EXIT_INPUT, None, "")
    assert results[2] == results[0] and results[0][0] == EXIT_OK


def test_compute_all_metrics_writes_json(tmp_path):
    edges = put(tmp_path, "g.csv", RING)
    rel = put(tmp_path, "r.csv", REL)
    out = tmp_path / "res.json"
    code = main(
        ["compute", edges, "--relevance", rel, "--metric", "all", "--out", str(out)]
    )
    assert code == EXIT_OK
    data = json.loads(out.read_bytes())
    assert data["metadata"]["relevance"] == "r.csv"
    assert data["vertices"]["degree"]["A"] == 4.0
    assert data["vertices"]["betweenness"]["B"] == 2.0
    assert {e["value"] for e in data["edges"]["edge-betweenness"]} == {7.0, 5.0}


def test_compute_csv_and_dot_formats(tmp_path):
    edges = put(tmp_path, "g.csv", WRING)
    out_csv = tmp_path / "res.csv"
    assert (
        main(["compute", edges, "--metric", "harmonic", "--out", str(out_csv),
              "--format", "csv"])
        == EXIT_OK
    )
    assert out_csv.read_text().splitlines()[0] == "metric,source,target,value"
    out_dot = tmp_path / "res.dot"
    assert (
        main(["compute", edges, "--metric", "all", "--out", str(out_dot),
              "--format", "dot"])
        == EXIT_OK
    )
    assert out_dot.read_text().startswith("graph relcentral {")


@pytest.mark.parametrize("body, nodes", [("", []), ("a,\nb,\n", ['"a"', '"b"'])],
                         ids=["header-only", "bare-vertices"])
def test_compute_dot_on_a_graph_without_edges(tmp_path, body, nodes):
    edges = put(tmp_path, "g.csv", "source,target\n" + body)
    out = tmp_path / "res.dot"
    assert main(["compute", edges, "--metric", "all", "--out", str(out),
                 "--format", "dot"]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "graph relcentral {" and lines[-1] == "}"
    assert [ln.split()[0] for ln in lines[2:-1]] == nodes


@pytest.mark.parametrize("n, metric, piece", [(5000, "degree", None), (40, "all", 3)])
def test_compute_writes_the_bytes_of_the_whole_document(tmp_path, monkeypatch,
                                                        n, metric, piece):
    # more rows than one piece: every table is written in several pieces
    if piece is not None:
        monkeypatch.setattr(io_formats, "_PIECE", piece)
    assert n > io_formats._PIECE
    rows = "".join(f"v{i},v{(i + 1) % n}\n" for i in range(n))
    edges = put(tmp_path, "g.csv", "source,target\n" + rows)
    g = build_graph_chunks(io_formats.load_edge_chunks(edges))
    if metric == "degree":
        reports = [degree_centrality(g)]
    else:
        vrep, erep = betweenness_reports(g)
        reports = [degree_centrality(g), harmonic_centrality(g), vrep, erep]
    doc = io_formats.build_result_document(g, reports, "g.csv")
    text = io.StringIO()
    io_formats.write_results_csv(doc, text)
    for fmt, want in (("json", io_formats.write_results_json(doc)),
                      ("csv", text.getvalue().encode("utf-8"))):
        out = tmp_path / f"res.{fmt}"
        assert main(["compute", edges, "--metric", metric, "--workers", "1",
                     "--out", str(out), "--format", fmt]) == EXIT_OK
        assert out.read_bytes() == want


def test_compute_path_f_skips_degree_with_note(tmp_path, capsys):
    edges = put(tmp_path, "g.csv", RING)
    assert main(["compute", edges, "--f", "path-prod", "--metric", "all"]) == EXIT_OK
    got = capsys.readouterr()
    assert "skipping degree" in got.err
    assert "degree (" not in got.out
    assert "betweenness (" in got.out


def test_compute_degree_with_path_f_is_an_input_error(tmp_path, capsys):
    # both engines, also on a graph with no edge, where no pair is weighed
    for text in (RING, "source,target\nA\nB\n"):
        edges = put(tmp_path, "g.csv", text)
        for engine in ("fast", "oracle"):
            assert main(["compute", edges, "--f", "path-sum", "--metric", "degree",
                         "--engine", engine]) == EXIT_INPUT
            err = capsys.readouterr().err
            assert err == "error: path-sum needs a path; degree sees only neighbors\n"


def test_compute_matrix_selector(tmp_path):
    edges = put(tmp_path, "g.csv", "source,target\na,b\nb,c\n")
    mat = put(
        tmp_path, "F.csv",
        ",a,b,c\na,0,2,3\nb,4,0,5\nc,6,7,0\n",
    )
    out = tmp_path / "res.json"
    code = main(["compute", edges, "--f", f"matrix:{mat}",
                 "--metric", "harmonic", "--out", str(out)])
    assert code == EXIT_OK
    data = json.loads(out.read_bytes())
    # C(a) = F[a][b]/1 + F[a][c]/2
    assert data["vertices"]["harmonic"]["a"] == pytest.approx(2 + 1.5)


def test_compute_matrix_without_a_path_is_input_error(tmp_path, capsys):
    edges = put(tmp_path, "g.csv", RING)
    assert main(["compute", edges, "--f", "matrix"]) == EXIT_INPUT
    assert "matrix f needs a file: use matrix:<path>" in capsys.readouterr().err


def test_compute_unknown_f_selector(tmp_path, capsys):
    edges = put(tmp_path, "g.csv", RING)
    assert main(["compute", edges, "--f", "quadratic"]) == EXIT_INPUT
    assert capsys.readouterr().err == (
        "error: unknown f selector 'quadratic'; pick one of "
        "product, mean, source, max, path-sum, path-prod, matrix:<path>\n"
    )


_MATRIX = ",A,B,C,D\nA,0,2,3,4\nB,5,0,6,7\nC,8,9,0,1\nD,2,3,4,0\n"
# edge, relevance and matrix files: split plainly, with a quoted label
# (csv.reader), and with integer labels (read from the bytes)
_INPUTS = {
    "plain": (RING, REL, _MATRIX),
    "quoted": (RING.replace("A,B", '"A",B'), REL.replace("A,2", '"A",2'),
               _MATRIX.replace(",A,", ',"A",', 1)),
    "integer": tuple(text.translate(str.maketrans("ABCD", "1234")) for text in (RING, REL, _MATRIX)),
}


@pytest.mark.parametrize("inputs", list(_INPUTS.values()), ids=list(_INPUTS))
def test_inputs_with_a_leading_byte_order_mark_give_the_bytes_of_their_copies(tmp_path, inputs):
    results = []
    for mark in ("", "\ufeff"):
        d = tmp_path / ("bom" if mark else "plain")
        d.mkdir()
        edges, rel, matrix = (put(d, name, mark + text)
                              for name, text in zip(("g.csv", "r.csv", "F.csv"), inputs))
        for f in ("product", f"matrix:{matrix}"):
            assert main(["compute", edges, "--relevance", rel, "--f", f,
                         "--out", str(d / "out.json")]) == EXIT_OK
            results.append((d / "out.json").read_bytes())
    assert results[:2] == results[2:]


def test_compute_missing_file_is_input_error(tmp_path, capsys):
    assert main(["compute", str(tmp_path / "nope.csv")]) == EXIT_INPUT
    assert "error:" in capsys.readouterr().err


def test_compute_malformed_csv_is_input_error(tmp_path):
    edges = put(tmp_path, "g.csv", "source,target\nA,A\n")
    assert main(["compute", edges]) == EXIT_INPUT


@pytest.mark.parametrize("text, message", [
    ("source,target\na,b\n\nc,d\nb,a\n", "5: duplicate edge 'b'-'a'"),
    ("source,target\na,b\nb,b\n", "3: self-loop at 'b'"),
    ("source,target,weight\na,b,1\n\nb,c,-2\n", "4: weight -2.0 for 'b'-'c'"),
], ids=["duplicate", "self-loop", "weight"])
def test_compute_graph_fault_names_file_and_line(tmp_path, capsys, text, message):
    edges = put(tmp_path, "e.csv", text)
    assert main(["compute", edges]) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {edges}:{message}\n"


def test_compute_field_over_the_csv_limit_is_input_error(tmp_path, capsys):
    # csv.reader rejects a field longer than csv.field_size_limit()
    edges = put(tmp_path, "g.csv", "source,target\nA,B\n" + "x" * 131073 + ",A\n")
    assert main(["compute", edges, "--metric", "degree"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error: {edges}:3: field larger than field limit")
    assert "Traceback" not in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rows", [
    "a,b,1\nb,c,1e17\n",  # from c, d(c, b) + 1 rounds back to d(c, b)
    "a,b,1\nb,c,1e308\nc,d,1e308\n",  # d(a, d) past float64
])
def test_path_lengths_float64_cannot_hold_exit_3(tmp_path, capsys, rows):
    edges = put(tmp_path, "g.csv", "source,target,weight\n" + rows)
    out = tmp_path / "out.json"
    assert main(["compute", edges, "--metric", "all", "--out", str(out)]) == EXIT_COMPUTE
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and re.match(r"error: .*float64", captured.err)
    assert not captured.out and not out.exists()


def test_oracle_engine_matches_fast(tmp_path):
    edges = put(tmp_path, "g.csv", WRING)
    rel = put(tmp_path, "r.csv", REL)
    fast, oracle = tmp_path / "fast.json", tmp_path / "oracle.json"
    base = ["compute", edges, "--relevance", rel, "--metric", "all"]
    assert main(base + ["--out", str(fast)]) == EXIT_OK
    assert main(base + ["--engine", "oracle", "--out", str(oracle)]) == EXIT_OK
    assert fast.read_bytes() == oracle.read_bytes()


def test_oracle_engine_rejects_large_graphs(tmp_path, capsys):
    rows = "\n".join(f"v{i},v{i + 1}" for i in range(13))
    edges = put(tmp_path, "big.csv", "source,target\n" + rows + "\n")
    code = main(["compute", edges, "--engine", "oracle", "--metric", "betweenness"])
    assert code == EXIT_COMPUTE
    assert "error:" in capsys.readouterr().err


def test_generate_ws_files_and_determinism(tmp_path, capsys):
    prefix = str(tmp_path / "net")
    args = ["generate", "--kind", "ws", "--n", "30", "--d", "4",
            "--p", "0.5", "--r", "0.5", "--seed", "3", "--out-prefix", prefix]
    assert main(args) == EXIT_OK
    edges1 = (tmp_path / "net.edges.csv").read_bytes()
    rel1 = (tmp_path / "net.relevance.csv").read_bytes()
    assert main(args) == EXIT_OK
    assert (tmp_path / "net.edges.csv").read_bytes() == edges1
    assert (tmp_path / "net.relevance.csv").read_bytes() == rel1
    assert "wrote" in capsys.readouterr().out
    # the two output files feed straight back into compute
    assert main(["compute", f"{prefix}.edges.csv",
                 "--relevance", f"{prefix}.relevance.csv"]) == EXIT_OK


def test_generate_ring_ignores_p(tmp_path):
    prefix = str(tmp_path / "ring")
    assert main(["generate", "--kind", "ring", "--n", "12", "--d", "4",
                 "--out-prefix", prefix]) == EXIT_OK
    text = (tmp_path / "ring.edges.csv").read_text()
    assert text.count("\n") == 1 + 24


def test_generate_negative_seed_is_input_error(tmp_path, capsys):
    prefix = tmp_path / "x"
    code = main(["generate", "--kind", "ws", "--n", "10", "--d", "2", "--p", "0.5",
                 "--seed", "-1", "--out-prefix", str(prefix)])
    assert code == EXIT_INPUT
    assert "--seed must be non-negative, got -1" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("kind", ["ring", "ws"])
def test_generate_fraction_outside_0_1_is_input_error_before_any_file(tmp_path, capsys, kind):
    code = main(["generate", "--kind", kind, "--n", "10", "--d", "2", "--r", "1.5",
                 "--out-prefix", str(tmp_path / "x")])
    assert code == EXIT_INPUT
    assert capsys.readouterr().err == "error: relevance fraction r=1.5 outside [0, 1]\n"
    assert not list(tmp_path.iterdir())


def test_generate_invalid_degree_is_input_error(tmp_path, capsys):
    code = main(["generate", "--kind", "ring", "--n", "10", "--d", "3",
                 "--out-prefix", str(tmp_path / "x")])
    assert code == EXIT_INPUT
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("graph", [RING, WRING], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("f", ["product", "path-prod"])
def test_metric_all_harmonic_table_matches_harmonic_alone(tmp_path, graph, f):
    edges = put(tmp_path, "g.csv", graph)
    rel = put(tmp_path, "r.csv", REL)
    tables = []
    for metric in ("all", "harmonic"):
        out = tmp_path / f"{metric}.json"
        argv = ["compute", edges, "--relevance", rel, "--f", f, "--metric", metric]
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        tables.append(json.dumps(json.loads(out.read_bytes())["vertices"]["harmonic"]))
    assert tables[0] == tables[1]


@pytest.mark.parametrize("graph", [RING, WRING], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("metric", ["degree", "all"])
def test_compute_never_builds_the_reference_views(tmp_path, monkeypatch, graph, metric):
    # the only per-edge Python views left are the oracle's neighbor lists
    # and edge-id dict; the fast engine reads the graph's arrays alone
    from relcentral import oracle

    built = []
    for name in ("_neighbors", "_edge_ids"):
        view = getattr(oracle, name)
        monkeypatch.setattr(oracle, name,
                            lambda g, name=name, view=view: built.append(name) or view(g))
    edges = put(tmp_path, "g.csv", graph)
    rel = put(tmp_path, "r.csv", REL)
    out = tmp_path / "res.json"
    argv = ["compute", edges, "--relevance", rel, "--metric", metric, "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert out.exists() and built == []
    # the spies do see the oracle build them
    assert main(argv + ["--engine", "oracle"]) == EXIT_OK
    assert built


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_nonpositive_workers_is_input_error(tmp_path, capsys, workers):
    edges = put(tmp_path, "g.csv", RING)
    assert main(["compute", edges, "--workers", workers]) == EXIT_INPUT
    assert "--workers" in capsys.readouterr().err
    out = tmp_path / "corr.csv"
    assert main(["experiment", "--out", str(out), "--workers", workers]) == EXIT_INPUT
    assert "--workers" in capsys.readouterr().err
    assert not out.exists()


def test_experiment_grid_to_csv(tmp_path):
    grid = put(tmp_path, "grid.json", json.dumps({
        "kinds": ["random"], "sizes": [20], "r": [0.0, 1.0],
        "f": ["product"], "metrics": ["harmonic"], "seeds": [0, 1], "d": 4,
    }))
    out = tmp_path / "corr.csv"
    assert main(["experiment", "--grid", grid, "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0].startswith("kind,n,p,r,f,metric,seed")
    assert len(lines) == 1 + 4


def test_experiment_reports_progress_on_stderr(tmp_path, capsys):
    spec = {"kinds": ["random"], "sizes": [20], "r": [0.0, 1.0],
            "f": ["product"], "metrics": ["harmonic"], "seeds": [0, 1], "d": 4}
    grid = put(tmp_path, "grid.json", json.dumps(spec))
    out = tmp_path / "corr.csv"
    assert main(["experiment", "--grid", grid, "--out", str(out), "--workers", "2"]) == EXIT_OK
    got = capsys.readouterr()
    lines = got.err.splitlines()
    cells = [c.cell_id for c in relcentral.ExperimentGrid.from_json(grid).cells()]
    assert len(lines) == len(cells)
    pattern = re.compile(r"\[(\d+)/4\] (\S+) \d+\.\d{3} s")
    matches = [pattern.fullmatch(line) for line in lines]
    assert all(matches)
    assert sorted(int(m[1]) for m in matches) == [1, 2, 3, 4]
    assert sorted(m[2] for m in matches) == sorted(cells)
    assert "wrote 4 correlation rows" in got.out
    # the progress lines leave the CSV bytes as they were
    ref = tmp_path / "ref.csv"
    relcentral.write_correlation_csv(
        relcentral.run_grid(relcentral.ExperimentGrid.from_json(grid)), ref)
    assert out.read_bytes() == ref.read_bytes()


def test_experiment_bad_grid_is_input_error(tmp_path, capsys):
    grid = put(tmp_path, "grid.json", "{not json")
    out = tmp_path / "corr.csv"
    assert main(["experiment", "--grid", grid, "--out", str(out)]) == EXIT_INPUT
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("sizes, d", [([30], 3), ([3], 4), ([40, 5], 10)])
def test_experiment_bad_degree_is_input_error_before_any_cell(tmp_path, monkeypatch, capsys,
                                                             sizes, d):
    built = []
    monkeypatch.setattr(experiments, "_build_network", lambda *a: built.append(a))
    grid = put(tmp_path, "grid.json", json.dumps({"sizes": sizes, "d": d}))
    out = tmp_path / "corr.csv"
    assert main(["experiment", "--grid", grid, "--out", str(out)]) == EXIT_INPUT
    assert "mean degree must be even with 0 < d < n" in capsys.readouterr().err
    assert not built and not out.exists()


def test_experiment_failing_cell_is_compute_error(tmp_path, monkeypatch, capsys):
    def overflow(g, R, f, *args):
        raise SigmaOverflowError("harmonic accumulation overflowed to a non-finite value")

    monkeypatch.setattr(experiments, "_reports", overflow)
    grid = put(tmp_path, "grid.json", json.dumps({
        "kinds": ["regular"], "sizes": [5], "r": [0.0],
        "f": ["product"], "metrics": ["harmonic"], "seeds": [0], "d": 2,
    }))
    out = tmp_path / "corr.csv"
    assert main(["experiment", "--grid", grid, "--out", str(out)]) == EXIT_COMPUTE
    assert "cell regular-n5" in capsys.readouterr().err
    assert not out.exists()


def test_argparse_rejects_unknown_subcommand(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["frobnicate"])
    assert ei.value.code == 2


# --- fresh processes: the command line runs on numpy alone ---

FLORENCE = ["data/florence/edges.csv", "--relevance", "data/florence/relevance.csv"]
# runs relcentral.cli as `python -m relcentral.cli` does, with scipy made
# unimportable (a None entry in sys.modules fails every import of it), and
# reports the exit code on its last stderr line
RUN_CLI = (
    "import runpy, sys\n"
    "sys.modules['scipy'] = None\n"
    "try:\n"
    "    runpy.run_module('relcentral.cli', run_name='__main__', alter_sys=True)\n"
    "except SystemExit as exc:\n"
    "    print(exc.code, file=sys.stderr)\n"
)


def _fresh(tmp_path, command, args):
    """(stdout, output bytes) of ``relcentral <command> <args>`` in a
    fresh process without scipy, which must exit 0."""
    out = tmp_path / "result.out"  # the in-process run's too: stdout names it
    env = dict(os.environ, PYTHONPATH=str(Path(relcentral.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", RUN_CLI, command, *args, "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.stderr.splitlines()[-1] == str(EXIT_OK), done.stderr
    return done.stdout, out.read_bytes()


def _in_process(tmp_path, capsys, command, args):
    out = tmp_path / "result.out"
    capsys.readouterr()
    assert main([command, *args, "--out", str(out)]) == EXIT_OK
    return capsys.readouterr().out, out.read_bytes()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_fresh_degree_request_needs_no_scipy(tmp_path, capsys, fmt):
    args = FLORENCE + ["--metric", "degree", "--format", fmt]
    assert _fresh(tmp_path, "compute", args) == _in_process(tmp_path, capsys, "compute", args)


def test_fresh_path_requests_match_in_process_bytes(tmp_path, capsys):
    g = watts_strogatz(GeneratorConfig(n=BLOCK + 44, d=4, p=1.0, seed=3))
    large, large_rel = str(tmp_path / "large.csv"), str(tmp_path / "large_rel.csv")
    save_edge_csv(g, large)
    save_relevance_csv(assign_relevance(g.vertex_count, 4, 0.5, 5), g, large_rel)
    # path requests run on numpy alone, weighted graphs included
    cases = [
        (FLORENCE + ["--metric", "all"], []),
        ([put(tmp_path, "w.csv", WRING), "--relevance", put(tmp_path, "r.csv", REL),
          "--metric", "all"], []),
        ([large, "--relevance", large_rel, "--f", "path-prod", "--metric", "all"],
         ["--workers", "2"]),  # more than one block: a thread pool starts
    ]
    for args, fresh_only in cases:
        assert _fresh(tmp_path, "compute", args + fresh_only) == _in_process(
            tmp_path, capsys, "compute", args + ["--workers", "1"])


@pytest.mark.parametrize("f", ["product", "mean", "source", "max", "path-sum", "path-prod"])
def test_fresh_weighted_request_needs_no_scipy(tmp_path, capsys, f):
    args = [put(tmp_path, "w.csv", WRING), "--relevance", put(tmp_path, "r.csv", REL),
            "--f", f, "--metric", "all"]
    assert _fresh(tmp_path, "compute", args) == _in_process(tmp_path, capsys, "compute", args)


def test_fresh_experiment_needs_no_scipy(tmp_path, capsys):
    # both network kinds, a pairwise and a path f, both metrics: spearman on
    # ranks with ties (r = 0.5 leaves half the relevance values at 1) and without
    grid = put(tmp_path, "grid.json", json.dumps({
        "kinds": ["regular", "random"], "sizes": [20], "r": [0.5],
        "f": ["product", "path-sum"], "metrics": ["betweenness", "harmonic"],
        "seeds": [0], "d": 4,
    }))
    args = ["--grid", grid, "--workers", "2"]
    assert _fresh(tmp_path, "experiment", args) == _in_process(
        tmp_path, capsys, "experiment", ["--grid", grid, "--workers", "1"])
