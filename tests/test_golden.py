"""Golden outputs: the bytes of ``compute``, the engine's values, and the
rows of a reduced grid.

The inputs under ``tests/data/`` are the seed-1 inputs of three benchmark
workloads, written once by ``perfbench/inputs.py`` (edges from
``make_graph(wl, 1)``, relevance from ``make_relevance(wl, 1, 0)``) and
committed, so they do not depend on numpy's random streams.
``grid-sizes-100.csv`` is ``relcentral experiment`` on ``{"sizes": [100]}``,
and ``grid-default.csv`` on the default grid (480 rows, about 100 s), which
the ``grid`` check of ``scripts/ci_smoke.sh`` compares with
``assert_grid_matches``.

A change that moves any of these values changes a golden file on
purpose and says so, with the reason and the largest change in value.
"""

import csv
import hashlib
import json
from pathlib import Path

import pytest

from relcentral import betweenness_reports, harmonic_centrality, io_formats
from relcentral.cli import EXIT_OK, main
from relcentral.graph import build_graph_chunks
from relcentral.relevance import RelevanceFunction, Variant

DATA = Path(__file__).resolve().parent / "data"

# SHA-256 of the `compute --metric all` JSON; --workers 1 and 2 give the same bytes
COMPUTE_SHA256 = {
    ("ws-lowdiam", "product"): "3c217b9e34b4df8baefad37be858b29c62629314bef5449b81611c0c7f9a11cf",
    ("ws-lowdiam", "mean"): "e931b5218a1c775e020ab34532692cbcd705bd4284ab759ad1eaa95414f97857",
    ("ws-lowdiam", "path-sum"): "349db99ae8823964f005056fcc93457d584f7cb08da38f0f0f2ff81d56b38b18",
    ("ws-lowdiam", "path-prod"): "38c10ab8c55fb88c224c4d91a2274bf87762241c0838e59eb878fe95f1f567a0",
    ("ring-deep", "product"): "0c4892b567018c458d606f94003670608c41ded5374c4ff33fd83fc2ddb87095",
    ("ring-deep", "mean"): "6db79776ec7f1263925c8bdd52c2fed970ec0023e2c0aa662d859d9258e0490d",
    ("ring-deep", "path-sum"): "67452f9f937e3f893ccf2bf65ee75472fd5cea6c165bbaecd98c2aac1457de23",
    ("ring-deep", "path-prod"): "45f4789a643ef187fa347ae9173b3fdbd05ab2275e4506536ecf240b11dbfa82",
    ("weighted-sparse", "product"): "cbf97179354effed38196e02f7874adf480b79062a90b042fa5549c51f33eda8",
    ("weighted-sparse", "mean"): "9610f2548c1e25714153d5abd60b9684b7f7372a26464d66884a126010b7a5af",
    ("weighted-sparse", "path-sum"): "f438f5a912b92af865c5ee2805f6790475da4db0554e177622ce8a942d950695",
    ("weighted-sparse", "path-prod"): "31bddb56b123a5a4675d8584dcbc038c6f75904ca66f70b78dfe1627e5b4bc77",
}

# SHA-256 of the float64 bytes (little-endian) of the harmonic, vertex and
# edge betweenness values, in that order. The JSON keeps 12 significant
# digits, which hides a sum taken in another order; these bytes do not.
VALUES_SHA256 = {
    ("ws-lowdiam", "product"): "e54f2c00d479034454874980717b77e991028624d38e58ffdcf2ec5f1ce494f9",
    ("ws-lowdiam", "mean"): "7e9d41b86ec21f3daa866859aef40f53cbd52dd7a9a41dba80d6e74e425e8f72",
    ("ws-lowdiam", "path-sum"): "43b6a4652ed842aaa9ae41a84dce77d5eb8371315b99c95ca744d9862507b872",
    ("ws-lowdiam", "path-prod"): "6a4ebbe55cf61bea4d225537ee08460a2c181d382251f2c3256277534e216d00",
    ("ring-deep", "product"): "02ce9fcaf7dbff21c54fd76804e414135a683c05a6d37e688f111e3eb6e39d0f",
    ("ring-deep", "mean"): "c614a36e1d71cff02712f1ddb5b7bf87d2c15349997d07b74ee5812c906a9ebf",
    ("ring-deep", "path-sum"): "0c918e32fd758931ec5eae9492fc11b920e875b1261a49301dca5c6145f40db5",
    ("ring-deep", "path-prod"): "584b1bd1fd43eecc3006cfc009dfaac0536149ab38de71f753bd7e0dcc061207",
    ("weighted-sparse", "product"): "b8e2ebf43ed1fae56fce5540abe082f04aae7fce34842b5681e7eecb4bb648bf",
    ("weighted-sparse", "mean"): "b821befba3f94e95bccf81f2a60336223d98c5de2c9d2d67b031a52a341afc55",
    ("weighted-sparse", "path-sum"): "acab1032a5053ced6b3598bbeea661ba120d71405b4bb3e62f58f545862bda1f",
    ("weighted-sparse", "path-prod"): "f1c43829f6b79a6c39d9ca10787e14ed93b243ae06f639c285bb5e610b4a9756",
}

GRID_KEYS = ("kind", "n", "p", "r", "f", "metric", "seed")
GRID_CORRELATIONS = ("pearson", "spearman", "pearson_R", "spearman_R")


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name, f", sorted(COMPUTE_SHA256))
def test_compute_json_is_golden(tmp_path, capsys, name, f, workers):
    out = tmp_path / "res.json"
    argv = [
        "compute", str(DATA / f"{name}.edges.csv"),
        "--relevance", str(DATA / f"{name}.relevance.csv"),
        "--metric", "all", "--f", f, "--workers", str(workers), "--out", str(out),
    ]
    assert main(argv) == EXIT_OK
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == COMPUTE_SHA256[name, f]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name, f", sorted(VALUES_SHA256))
def test_engine_values_are_golden(name, f, workers):
    g = build_graph_chunks(io_formats.load_edge_chunks(DATA / f"{name}.edges.csv"))
    R = io_formats.load_relevance_csv(DATA / f"{name}.relevance.csv", g)
    fn = RelevanceFunction(Variant(f))
    reports = [harmonic_centrality(g, R, fn, workers), *betweenness_reports(g, R, fn, workers)]
    digest = hashlib.sha256(b"".join(rep.values.astype("<f8").tobytes() for rep in reports))
    assert digest.hexdigest() == VALUES_SHA256[name, f]


def _rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def assert_grid_matches(got_path, want_path, rows: int):
    """The key columns and ``constant_flag`` of a grid's CSV equal the
    golden file's, and its four correlations are within 1e-12."""
    got, want = _rows(got_path), _rows(want_path)
    assert len(want) == rows
    assert [[r[k] for k in GRID_KEYS + ("constant_flag",)] for r in got] == \
        [[r[k] for k in GRID_KEYS + ("constant_flag",)] for r in want]
    # pearson's dot products go through BLAS, which may differ in the last
    # bit between machines; rounding drops the parse noise of the 12 digits
    for g, w in zip(got, want):
        for col in GRID_CORRELATIONS:
            assert round(abs(float(g[col]) - float(w[col])), 15) <= 1e-12, (g, col)


def test_reduced_grid_is_golden(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"sizes": [100]}))
    out = tmp_path / "corr.csv"
    assert main(["experiment", "--grid", str(grid), "--workers", "1", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert_grid_matches(out, DATA / "grid-sizes-100.csv", 240)
