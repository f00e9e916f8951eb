import json

import numpy as np
import pytest

from relcentral.cli import EXIT_COMPUTE, EXIT_INPUT, EXIT_OK, main
from relcentral.graph import Graph

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


def test_compute_path_f_skips_degree_with_note(tmp_path, capsys):
    edges = put(tmp_path, "g.csv", RING)
    assert main(["compute", edges, "--f", "path-prod", "--metric", "all"]) == EXIT_OK
    got = capsys.readouterr()
    assert "skipping degree" in got.err
    assert "degree (" not in got.out
    assert "betweenness (" in got.out


def test_compute_degree_with_path_f_is_an_input_error(tmp_path, capsys):
    edges = put(tmp_path, "g.csv", RING)
    assert main(["compute", edges, "--f", "path-sum", "--metric", "degree"]) == EXIT_INPUT
    assert "error:" in capsys.readouterr().err


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


def test_compute_unknown_f_selector(tmp_path, capsys):
    edges = put(tmp_path, "g.csv", RING)
    assert main(["compute", edges, "--f", "quadratic"]) == EXIT_INPUT
    assert "unknown f selector" in capsys.readouterr().err


def test_compute_missing_file_is_input_error(tmp_path, capsys):
    assert main(["compute", str(tmp_path / "nope.csv")]) == EXIT_INPUT
    assert "error:" in capsys.readouterr().err


def test_compute_malformed_csv_is_input_error(tmp_path):
    edges = put(tmp_path, "g.csv", "source,target\nA,A\n")
    assert main(["compute", edges]) == EXIT_INPUT


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
    built = []
    for name in ("edges", "adjacency"):
        view = Graph.__dict__[name]
        monkeypatch.setattr(Graph, name, property(
            lambda self, name=name, view=view: built.append(name) or view.func(self)))
    edges = put(tmp_path, "g.csv", graph)
    rel = put(tmp_path, "r.csv", REL)
    out = tmp_path / "res.json"
    argv = ["compute", edges, "--relevance", rel, "--metric", metric, "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert out.exists() and built == []


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


def test_experiment_bad_grid_is_input_error(tmp_path, capsys):
    grid = put(tmp_path, "grid.json", "{not json")
    out = tmp_path / "corr.csv"
    assert main(["experiment", "--grid", grid, "--out", str(out)]) == EXIT_INPUT
    assert "error:" in capsys.readouterr().err


def test_experiment_impossible_cell_is_compute_error(tmp_path, capsys):
    grid = put(tmp_path, "grid.json", json.dumps({
        "kinds": ["regular"], "sizes": [5], "r": [0.0],
        "f": ["product"], "metrics": ["harmonic"], "seeds": [0], "d": 10,
    }))
    out = tmp_path / "corr.csv"
    assert main(["experiment", "--grid", grid, "--out", str(out)]) == EXIT_COMPUTE
    assert "cell" in capsys.readouterr().err


def test_argparse_rejects_unknown_subcommand(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["frobnicate"])
    assert ei.value.code == 2
