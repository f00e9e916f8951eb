"""The package surface: every public name resolves, and a fresh process
loads only the modules it runs.

``experiments``, ``generators`` and ``oracle`` load on first use; the
fresh-process probes check that ``import relcentral`` and a ``compute``
request load none of them, and that the commands which need them still
run.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import relcentral

SRC = str(Path(relcentral.__file__).resolve().parents[1])
DATA = Path(__file__).resolve().parent / "data"
ON_FIRST_USE = ["relcentral.experiments", "relcentral.generators", "relcentral.oracle"]
COMPUTE_PATH = [
    "relcentral.errors", "relcentral.graph", "relcentral.relevance",
    "relcentral._batched", "relcentral.centrality", "relcentral.io_formats",
]


def _fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, check=True, timeout=120,
    )


def _loaded_after(statement: str, *args: str) -> list:
    """The relcentral modules a fresh process holds after ``statement``."""
    probe = (
        "import json, sys\n" + statement + "\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('relcentral.'))))\n"
    )
    return json.loads(_fresh(probe, *args).stdout.splitlines()[-1])


def test_every_public_name_resolves_and_is_listed():
    listed = dir(relcentral)
    for name in relcentral.__all__:
        assert getattr(relcentral, name) is not None, name
        assert name in listed, name


def test_every_public_name_is_listed_once_and_first_use_names_too():
    assert len(set(relcentral.__all__)) == len(relcentral.__all__)
    first_use = {name for names in relcentral._ON_FIRST_USE.values() for name in names}
    assert len(first_use) == 17 and first_use <= set(relcentral.__all__)


def test_star_import_binds_every_public_name():
    ns = {}
    exec("from relcentral import *", ns)
    assert set(relcentral.__all__) <= set(ns)
    assert ns["run_grid"] is relcentral.experiments.run_grid
    assert ns["brute_betweenness"] is relcentral.oracle.brute_betweenness


def test_lazy_modules_are_attributes():
    assert relcentral.experiments.ExperimentGrid is relcentral.ExperimentGrid
    assert relcentral.generators.watts_strogatz is relcentral.watts_strogatz
    assert relcentral.oracle.OracleLimits is relcentral.OracleLimits
    for name in ("experiments", "generators", "oracle"):
        assert name in dir(relcentral)


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        relcentral.no_such_name  # noqa: B018


def test_import_loads_the_compute_modules_only():
    loaded = _loaded_after("import relcentral")
    assert [m for m in ON_FIRST_USE if m in loaded] == []
    assert [m for m in COMPUTE_PATH if m not in loaded] == []


def test_compute_request_loads_none_of_the_first_use_modules():
    statement = (
        "from relcentral.cli import main\n"
        "assert main(sys.argv[1:]) == 0"
    )
    edges, rel = DATA / "weighted-sparse.edges.csv", DATA / "weighted-sparse.relevance.csv"
    loaded = _loaded_after(statement, "compute", str(edges), "--relevance", str(rel),
                           "--metric", "all", "--workers", "2")
    assert [m for m in ON_FIRST_USE if m in loaded] == []
    assert "relcentral.cli" in loaded


@pytest.mark.parametrize("name, module", [
    ("run_grid", "relcentral.experiments"),
    ("ring_lattice", "relcentral.generators"),
    ("brute_degree", "relcentral.oracle"),
    ("oracle", "relcentral.oracle"),
])
def test_first_read_of_a_name_loads_its_module(name, module):
    loaded = _loaded_after(f"import relcentral; relcentral.{name}")
    assert module in loaded


def test_commands_that_need_the_first_use_modules_run_fresh(tmp_path):
    run = "import sys\nfrom relcentral.cli import main\nraise SystemExit(main(sys.argv[1:]))"
    _fresh(run, "generate", "--kind", "ws", "--n", "10", "--d", "4", "--p", "0.5",
           "--r", "0.5", "--out-prefix", str(tmp_path / "g"))
    assert (tmp_path / "g.edges.csv").exists() and (tmp_path / "g.relevance.csv").exists()

    _fresh(run, "compute", str(tmp_path / "g.edges.csv"), "--relevance",
           str(tmp_path / "g.relevance.csv"), "--engine", "oracle", "--out", str(tmp_path / "o.json"))
    _fresh(run, "compute", str(tmp_path / "g.edges.csv"), "--relevance",
           str(tmp_path / "g.relevance.csv"), "--out", str(tmp_path / "f.json"))
    oracle, fast = (json.loads((tmp_path / p).read_text()) for p in ("o.json", "f.json"))
    assert oracle["vertices"].keys() == fast["vertices"].keys()

    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"kinds": ["regular"], "sizes": [10], "r": [0.5],
                                "f": ["product"], "metrics": ["harmonic"], "seeds": [0], "d": 4}))
    _fresh(run, "experiment", "--grid", str(grid), "--workers", "1",
           "--out", str(tmp_path / "corr.csv"))
    assert len((tmp_path / "corr.csv").read_text().splitlines()) == 2


def test_only_graph_reads_how_labels_are_numbered():
    # the label dict, the integer values and their table are Graph's own
    private = {"_index", "_values", "_table"}
    for path in sorted(Path(relcentral.__file__).parent.glob("*.py")):
        if path.name != "graph.py":
            reads = [node.attr for node in ast.walk(ast.parse(path.read_text()))
                     if isinstance(node, ast.Attribute) and node.attr in private]
            assert reads == [], path.name
