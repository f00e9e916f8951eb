import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import relcentral
from conftest import random_graph, random_relevance
from relcentral.centrality import harmonic_centrality
from relcentral.errors import ExperimentCellError, LengthMismatchError
from relcentral.experiments import (
    CSV_COLUMNS,
    ExperimentCell,
    ExperimentGrid,
    constant_input,
    pearson,
    run_grid,
    spearman,
    write_correlation_csv,
)
from relcentral.relevance import SOURCE_ONLY, Variant


def test_pearson_known_values():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert pearson(x, 2 * x + 1) == pytest.approx(1.0)
    assert pearson(x, -x) == pytest.approx(-1.0)
    y = np.array([1.0, 3.0, 2.0, 4.0])
    assert pearson(x, y) == pytest.approx(0.8)


def test_pearson_constant_sentinel_and_clip():
    assert pearson(np.ones(4), np.arange(4.0)) == 0.0
    x = np.array([1.0, 1.0 + 1e-15])
    assert -1.0 <= pearson(x, x) <= 1.0


def test_pearson_length_checks():
    with pytest.raises(LengthMismatchError):
        pearson(np.ones(3), np.ones(4))
    with pytest.raises(LengthMismatchError):
        pearson(np.ones(1), np.ones(1))


def test_spearman_is_rank_based():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert spearman(x, x**3) == pytest.approx(1.0)  # monotone, nonlinear
    assert spearman(x, -(x**3)) == pytest.approx(-1.0)


def test_spearman_average_ties():
    x = np.array([1.0, 2.0, 2.0, 3.0])
    y = np.array([10.0, 20.0, 20.0, 30.0])
    assert spearman(x, y) == pytest.approx(1.0)


def test_cell_id_format():
    c = ExperimentCell(
        kind="random", n=100, p=1.0, r=0.1,
        f=Variant.PATH_SUM, metric="harmonic", seed=3,
    )
    assert c.cell_id == "random-n100-p1-r0.1-path-sum-harmonic-s3"


def test_default_grid_enumerates_the_study():
    grid = ExperimentGrid()
    cells = grid.cells()
    assert len(cells) == 2 * 2 * 2 * 6 * 2 * 5
    assert cells == sorted(cells, key=lambda c: c.sort_key())
    assert grid.d == 10
    # regular cells carry p=0, random cells p=1
    ps = {(c.kind, c.p) for c in cells}
    assert ps == {("regular", 0.0), ("random", 1.0)}


def test_grid_from_json_roundtrip(tmp_path):
    cfg = {
        "kinds": ["random"], "sizes": [40], "r": [0.0, 1.0],
        "f": ["product", "path-prod"], "metrics": ["betweenness"],
        "seeds": [0, 1], "d": 4,
    }
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(cfg))
    grid = ExperimentGrid.from_json(path)
    assert grid.sizes == (40,) and grid.d == 4
    assert len(grid.cells()) == 1 * 1 * 2 * 2 * 1 * 2


def test_grid_from_json_rejects_unknown_keys(tmp_path):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"sizes": [10], "mystery": 1}))
    with pytest.raises(ValueError):
        ExperimentGrid.from_json(path)


def small_grid(**over) -> ExperimentGrid:
    base = dict(
        kinds=("random",), sizes=(24,), rs=(0.0, 1.0),
        fs=(Variant.PRODUCT, Variant.PATH_PROD, Variant.PATH_SUM),
        metrics=("betweenness",), seeds=(0,), d=4,
    )
    base.update(over)
    return ExperimentGrid(**base)


def test_run_grid_record_layout():
    recs = run_grid(small_grid())
    assert len(recs) == 6
    rec = recs[0]
    assert rec.kind == "random" and rec.n == 24 and rec.metric == "betweenness"
    assert isinstance(rec.f, str)
    assert -1.0 <= rec.spearman <= 1.0


def test_run_grid_r_zero_reduction():
    # with every relevance 1, normalized variants reproduce the classic
    # ranking exactly; the path sum does not (an all-ones path sums to
    # its length) so its correlation stays below 1
    recs = run_grid(small_grid())
    by = {(r.f, r.r): r for r in recs}
    assert by[("product", 0.0)].pearson == pytest.approx(1.0, abs=1e-12)
    assert by[("product", 0.0)].spearman == pytest.approx(1.0, abs=1e-12)
    assert by[("path-prod", 0.0)].pearson == pytest.approx(1.0, abs=1e-12)
    assert by[("path-sum", 0.0)].pearson < 1.0


def test_run_grid_workers_deterministic():
    r1 = run_grid(small_grid(), workers=1)
    r4 = run_grid(small_grid(), workers=4)
    assert r1 == r4


def test_run_grid_annotates_failing_cell():
    bad = small_grid(sizes=(5,), d=10)  # lattice degree exceeds n
    with pytest.raises(ExperimentCellError) as ei:
        run_grid(bad)
    assert "random-n5" in str(ei.value)
    assert ei.value.cell_id.startswith("random-n5")


def test_write_correlation_csv(tmp_path):
    recs = run_grid(small_grid())
    out = tmp_path / "corr.csv"
    write_correlation_csv(recs, out)
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + len(recs)
    first = lines[1].split(",")
    assert first[:7] == ["random", "24", "1", "0", "path-prod", "betweenness", "0"]


def test_constant_input():
    assert constant_input(np.full(5, 3.3))
    assert not constant_input(np.arange(5.0))


@given(
    xs=st.lists(st.floats(-50, 50, allow_nan=False), min_size=2, max_size=30),
    ys=st.lists(st.floats(-50, 50, allow_nan=False), min_size=2, max_size=30),
    transform=st.sampled_from([np.exp, np.cbrt, lambda v: 3 * v + 2]),
)
def test_spearman_invariant_under_monotone_transforms(xs, ys, transform):
    m = min(len(xs), len(ys))
    # rounding keeps distinct draws far enough apart that the transform
    # stays injective in float64 (exp would fuse 0.0 and 1e-300)
    x = np.round(np.array(xs[:m]), 6)
    y = np.array(ys[:m])
    assert spearman(transform(x), y) == pytest.approx(spearman(x, y), abs=1e-12)


def test_source_only_harmonic_ratio_tracks_relevance():
    rng = np.random.default_rng(15)
    g = random_graph(rng, 20, weighted=True)
    R = random_relevance(rng, 20)
    classic = harmonic_centrality(g).values
    ext = harmonic_centrality(g, R, SOURCE_ONLY).values
    ratio = ext / classic  # connected graph, no zero rows
    assert spearman(R.values, ratio) == pytest.approx(1.0)
    np.testing.assert_allclose(ratio, R.values, rtol=1e-12)


def test_import_does_not_load_scipy_stats():
    src = str(Path(relcentral.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, relcentral; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    assert out.stdout.strip() == "False"
