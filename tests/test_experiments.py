import json
import os
import re
import subprocess
import sys
import warnings
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relcentral
from relcentral import centrality, experiments
from conftest import random_graph, random_relevance
from relcentral.centrality import Metric, harmonic_centrality, vertex_betweenness
from relcentral.errors import ExperimentCellError, LengthMismatchError
from relcentral.experiments import (
    CSV_COLUMNS,
    ExperimentCell,
    ExperimentGrid,
    _average_ranks,
    constant_input,
    pearson,
    run_grid,
    spearman,
    write_correlation_csv,
)
from relcentral.generators import GeneratorConfig, ring_lattice, watts_strogatz
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


@pytest.mark.parametrize("scale", [1e-170, 1e170])
def test_pearson_of_vectors_whose_centred_squares_leave_float64(scale):
    # (1e-170)^2 underflows and (1e170)^2 overflows; the scaled vectors do neither
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert pearson([0, scale, 2 * scale], [0, 1, 2]) == pytest.approx(1.0, abs=1e-15)
        assert pearson([0, 1, 2], [0, -scale, -2 * scale]) == pytest.approx(-1.0, abs=1e-15)


def test_pearson_and_constant_input_at_the_edges_of_float64():
    # the sum 2.7e308 and the spread 2e308 leave float64 unless scaled first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert pearson([0, 1e308, 1.7e308], [0, 1, 2]) == 0.9948497511671097
        assert not constant_input([1e308, -1e308])
        assert pearson([0, 1, 2], [0, 1, 2]) == 1.0
        assert spearman([1, 2, 3], [1, 2, 3]) == 1.0


_normal = st.floats(-1e6, 1e6).filter(lambda v: v == 0.0 or abs(v) > 1e-100)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_normal, _normal), min_size=2, max_size=20))
def test_pearson_is_exact_on_x_and_minus_x_and_near_the_plain_formula(pairs):
    # one root of the product of the two sums of squares: a vector
    # correlates with itself as exactly 1; otherwise the result is within
    # a few ulps of the formula with two roots
    x, y = np.array(pairs).T
    if constant_input(x) or constant_input(y):
        return
    assert pearson(x, x) == 1.0 and pearson(x, -x) == -1.0
    xc, yc = x - x.mean(), y - y.mean()
    plain = float(np.clip((xc @ yc) / (np.sqrt(xc @ xc) * np.sqrt(yc @ yc)), -1.0, 1.0))
    assert pearson(x, y) == pytest.approx(plain, rel=0, abs=4 * np.finfo(np.float64).eps)


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
    assert _average_ranks(x).tolist() == [1.0, 2.5, 2.5, 4.0]
    assert _average_ranks(np.array([3.0, -0.0, 3.0, 0.0, 3.0])).tolist() == [4.0, 1.5, 4.0, 1.5, 4.0]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([-2.0, -0.0, 0.0, 0.5, 1.0, 7.0]) | st.floats(-1e6, 1e6),
                min_size=1, max_size=40))
def test_average_ranks_equal_scipy_rankdata(xs):
    stats = pytest.importorskip("scipy.stats")
    x = np.array(xs)
    assert _average_ranks(x).tobytes() == stats.rankdata(x).astype(np.float64).tobytes()


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("corr", [pearson, spearman])
def test_correlations_reject_non_finite_input_on_either_side(corr, bad):
    x = np.array([1.0, 2.0, 3.0, 4.0])
    for side in (x, np.ones(4)):  # a constant other side does not hide it
        y = x.copy()
        y[2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            corr(y, side)
        with pytest.raises(ValueError, match="non-finite"):
            corr(side, y)
    with pytest.raises(ValueError, match="non-finite"):
        constant_input(np.array([1.0, bad]))


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
    assert [f.value for f in grid.fs] == ["product", "mean", "source", "max", "path-sum", "path-prod"]
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


def test_grid_from_json_skips_a_leading_byte_order_mark(tmp_path):
    path = tmp_path / "grid.json"
    path.write_text("\ufeff" + json.dumps({"sizes": [40], "d": 4}), encoding="utf-8")
    assert ExperimentGrid.from_json(path) == ExperimentGrid(sizes=(40,), d=4)


def test_grid_from_json_rejects_unknown_keys(tmp_path):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"sizes": [10], "mystery": 1}))
    with pytest.raises(ValueError):
        ExperimentGrid.from_json(path)


@pytest.mark.parametrize("cfg, message", [
    ({"kinds": "regular"}, "grid kinds must be a list"),
    ({"sizes": 30}, "grid sizes must be a list"),
    ({"r": 0.5}, "grid r must be a list"),
    ({"f": "product"}, "grid f must be a list"),
    ({"metrics": "harmonic"}, "grid metrics must be a list"),
    ({"seeds": {"0": 1}}, "grid seeds must be a list"),
    ({"sizes": [30.7]}, "grid sizes: expected an integer, got 30.7"),
    ({"sizes": ["30"]}, "grid sizes: expected an integer, got '30'"),
    ({"sizes": [True]}, "grid sizes: expected an integer, got True"),
    ({"seeds": [0, 1.5]}, "grid seeds: expected an integer, got 1.5"),
    ({"d": 4.5}, "grid d: expected an integer, got 4.5"),
    ({"d": [4]}, "grid d: expected an integer, got [4]"),
    ({"seeds": [0, -1]}, "grid seeds: expected a non-negative integer, got -1"),
    ({"f": ["product", "matrix"]}, "grid f: the matrix variant needs an F table"),
    ({"r": [None]}, "grid r: expected a number, got None"),
    ({"r": ["0.5"]}, "grid r: expected a number, got '0.5'"),
    ({"r": [True]}, "grid r: expected a number, got True"),
    ({"r": [[0.5]]}, "grid r: expected a number, got [0.5]"),
    ({"r": [10**400]}, "grid r: an integer too large for a float"),
    ({"sizes": [10**400]}, "grid sizes: an integer too large for a float"),
    ({"seeds": [0, -10**400]}, "grid seeds: an integer too large for a float"),
    ({"d": 10**400}, "grid d: an integer too large for a float"),
    ([{"sizes": [30]}], "grid config must be a JSON object"),
    ({"kinds": ["lattice"]}, "unknown network kind 'lattice'"),
    ({"metrics": ["degree"]}, "unknown metric 'degree'"),
    ({"r": [1.5]}, "relevance fraction 1.5 outside [0, 1]"),
    ({"r": [-0.1]}, "relevance fraction -0.1 outside [0, 1]"),
])
def test_grid_from_json_rejects_wrong_kinds_of_value(tmp_path, cfg, message):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(ValueError, match=re.escape(message)):
        ExperimentGrid.from_json(path)


def test_grid_from_json_takes_integral_numbers(tmp_path):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"sizes": [30.0], "seeds": [2.0], "d": 4.0}))
    grid = ExperimentGrid.from_json(path)
    assert (grid.sizes, grid.seeds, grid.d) == ((30,), (2,), 4)
    assert all(type(x) is int for x in grid.sizes + grid.seeds + (grid.d,))


@pytest.mark.parametrize("over, message", [
    ({"sizes": (20.5,)}, "grid sizes: expected an integer, got 20.5"),
    ({"seeds": (0.5,)}, "grid seeds: expected an integer, got 0.5"),
    ({"sizes": (True,)}, "grid sizes: expected an integer, got True"),
    ({"d": 4.5}, "grid d: expected an integer, got 4.5"),
    ({"rs": ("0.5",)}, "grid r: expected a number, got '0.5'"),
    ({"fs": ("quadratic",)}, "'quadratic' is not a valid Variant"),
    ({"kinds": "regular"}, "grid kinds must be a list, got 'regular'"),
    ({"metrics": "harmonic"}, "grid metrics must be a list, got 'harmonic'"),
    ({"fs": "product"}, "grid f must be a list, got 'product'"),
    ({"sizes": 30}, "grid sizes must be a list, got 30"),
    ({"rs": 0.5}, "grid r must be a list, got 0.5"),
], ids=["fractional-size", "fractional-seed", "bool-size", "fractional-d", "string-r", "unknown-f",
        "string-kinds", "string-metrics", "string-f", "bare-size", "bare-r"])
def test_grid_built_in_python_is_checked_as_from_json(monkeypatch, over, message):
    monkeypatch.setattr(experiments, "_build_network", lambda *a: pytest.fail("a cell ran"))
    with pytest.raises(ValueError, match=re.escape(message)):
        ExperimentGrid(**over)


def test_grid_built_in_python_converts_as_from_json(tmp_path):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"sizes": [30.0], "r": [1], "f": ["product"], "seeds": [2.0],
                                "d": 4.0}))
    grid = ExperimentGrid(sizes=[np.int64(30)], rs=[1], fs=["product"], seeds=[2.0], d=4.0)
    assert grid == ExperimentGrid.from_json(path)
    # a Metric is taken as its name, which cell ids and CSV rows print
    named = ExperimentGrid(metrics=[Metric.HARMONIC, Metric.VERTEX_BETWEENNESS])
    assert named.metrics == ("harmonic", "betweenness")
    assert named.cells()[0].cell_id == "random-n100-p1-r0.1-max-betweenness-s0"
    assert (grid.sizes, grid.rs, grid.fs, grid.seeds, grid.d) == (
        (30,), (1.0,), (Variant.PRODUCT,), (2,), 4)
    assert all(type(x) is int for x in grid.sizes + grid.seeds + (grid.d,))
    assert type(grid.rs[0]) is float and type(grid.fs) is tuple


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


def test_run_grid_progress_reports_every_cell_once_in_order():
    grid = small_grid(seeds=(0, 1))
    reports = []

    def progress(done, total, cell, seconds):
        reports.append((done, total, cell.cell_id, seconds))

    recs = run_grid(grid, workers=8, progress=progress)
    cells = grid.cells()
    assert recs == run_grid(grid)
    assert [r[0] for r in reports] == list(range(1, len(cells) + 1))
    assert {r[1] for r in reports} == {len(cells)}
    assert [r[2] for r in reports] == [c.cell_id for c in cells]
    assert all(r[3] >= 0.0 for r in reports)


def _spy_sweeps(monkeypatch, fake=False):
    """Record each ``_reports`` call of ``run_grid`` as (graph, relevance,
    f, workers, metrics); with ``fake``, every report holds the vertex
    indices instead of a sweep's values."""
    calls, reports = [], experiments._reports

    def spy(g, R, f, metrics, workers):
        calls.append((g, R, f.variant, workers, tuple(metrics)))
        if not fake:
            return reports(g, R, f, metrics, workers)
        rep = SimpleNamespace(values=np.arange(g.vertex_count, dtype=np.float64))
        return dict.fromkeys(map(Metric, metrics), rep)

    monkeypatch.setattr(experiments, "_reports", spy)
    return calls


def test_run_grid_hands_workers_to_every_sweep(monkeypatch):
    grid = small_grid(kinds=("regular", "random"), metrics=("betweenness", "harmonic"))
    calls = _spy_sweeps(monkeypatch)
    run_grid(grid, workers=3)
    # one classic baseline per graph, one sweep per (graph, relevance, f)
    # for both metrics of its cells
    assert {workers for *_, workers, _ in calls} == {3}
    assert [R is None for _, R, *_ in calls].count(True) == 2
    assert len(calls) == 2 + 2 * len(grid.rs) * len(grid.fs)
    assert {metrics for *_, metrics in calls} == {("betweenness", "harmonic")}


def test_run_grid_default_grid_runs_one_sweep_per_job(monkeypatch):
    grid = ExperimentGrid()
    calls = _spy_sweeps(monkeypatch, fake=True)
    assert len(run_grid(grid, workers=2)) == 480
    # 12 graphs: 2 ring lattices, 10 WS graphs (2 sizes x 5 seeds); each
    # lattice serves 60 (relevance, f) jobs (2 r x 5 seeds x 6 f), each WS
    # graph 12, and each graph one classic baseline
    assert len(calls) == 252
    assert len({(id(g), id(R), f) for g, R, f, *_ in calls}) == 252
    assert [R is None for _, R, *_ in calls].count(True) == 12
    assert {call[3:] for call in calls} == {(2, ("betweenness", "harmonic"))}


def test_run_grid_harmonic_only_asks_for_no_betweenness(monkeypatch):
    calls, flags, sweep = _spy_sweeps(monkeypatch), [], centrality.sweep

    def spy(g, R, f, workers, harmonic, betweenness):
        flags.append((harmonic, betweenness))
        return sweep(g, R, f, workers, harmonic, betweenness)

    monkeypatch.setattr(centrality, "sweep", spy)
    recs = run_grid(small_grid(metrics=("harmonic",)))
    assert len(recs) == 6 and {rec.metric for rec in recs} == {"harmonic"}
    assert len(calls) == len(flags) == 1 + 6
    assert {call[4] for call in calls} == {("harmonic",)}
    assert set(flags) == {(True, False)}


def test_run_grid_serves_a_listed_twice_f_from_one_sweep(monkeypatch):
    calls = _spy_sweeps(monkeypatch)
    recs = run_grid(small_grid(fs=(Variant.PRODUCT, Variant.PATH_SUM, Variant.PRODUCT)))
    # each duplicate cell sorts next to its twin
    assert len(recs) == 2 * 3 * 1
    assert [rec.f for rec in recs if rec.r == 1.0] == ["path-sum", "product", "product"]
    assert recs[1] == recs[2] and recs[4] == recs[5]
    assert len(calls) == 1 + 2 * 2


def test_run_grid_drops_each_sweep_and_graph_after_its_last_cell(monkeypatch):
    grid = small_grid(kinds=("regular", "random"), seeds=(0, 1),
                      fs=(Variant.PRODUCT, Variant.PATH_SUM), metrics=("betweenness", "harmonic"))
    cells = grid.cells()
    held = []  # (weak reference, the index of the last cell that reads it)
    make_reports = experiments._reports

    def spy(g, R, f, metrics, workers):
        reports = make_reports(g, R, f, metrics, workers)
        c = cells[len(done)]  # the cell being evaluated
        readers = [i for i, x in enumerate(cells)
                   if experiments._graph_key(x) == experiments._graph_key(c)
                   and (R is None or (x.r, x.seed, x.f) == (c.r, c.seed, c.f))]
        held.append((weakref.ref(g), max(i for i, x in enumerate(cells)
                                         if experiments._graph_key(x) == experiments._graph_key(c))))
        held.extend((weakref.ref(rep.values), readers[-1]) for rep in reports.values())
        return reports

    done = []

    def progress(n_done, total, cell, seconds):
        done.append(cell)
        gone = [ref() is None for ref, _ in held]
        assert gone == [last < n_done for _, last in held]

    monkeypatch.setattr(experiments, "_reports", spy)
    run_grid(grid, progress=progress)
    assert len(done) == len(cells) and all(ref() is None for ref, _ in held)


def test_run_grid_builds_each_ring_lattice_once(tmp_path, monkeypatch):
    grid = small_grid(kinds=("regular", "random"), seeds=(0, 1, 2),
                      fs=(Variant.PRODUCT, Variant.PATH_SUM), metrics=("betweenness", "harmonic"))
    built, build = [], experiments._build_network

    def spy(kind, n, d, seed):
        built.append(kind)
        return build(kind, n, d, seed)

    monkeypatch.setattr(experiments, "_build_network", spy)
    shared = run_grid(grid)
    assert (built.count("regular"), built.count("random")) == (1, 3)
    # the same grid with one graph, and one classic baseline, per seed
    monkeypatch.setattr(experiments, "_graph_key", lambda c: (c.kind, c.n, c.seed))
    per_seed = run_grid(grid)
    assert built.count("regular") == 1 + 3
    assert shared == per_seed
    write_correlation_csv(shared, tmp_path / "shared.csv")
    write_correlation_csv(per_seed, tmp_path / "per_seed.csv")
    assert (tmp_path / "shared.csv").read_bytes() == (tmp_path / "per_seed.csv").read_bytes()


def test_run_grid_annotates_failing_cell(monkeypatch):
    make_reports = experiments._reports

    def failing(g, R, f, *args):
        if f.variant is Variant.PATH_SUM:
            raise ValueError("no path-sum today")
        return make_reports(g, R, f, *args)

    monkeypatch.setattr(experiments, "_reports", failing)
    with pytest.raises(ExperimentCellError) as ei:
        run_grid(small_grid())
    assert ei.value.cell_id == "random-n24-p1-r0-path-sum-betweenness-s0"
    assert ei.value.cell_id in str(ei.value) and "no path-sum today" in str(ei.value)


def test_write_correlation_csv(tmp_path):
    recs = run_grid(small_grid())
    out = tmp_path / "corr.csv"
    write_correlation_csv(recs, out)
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS) == (
        "kind,n,p,r,f,metric,seed,pearson,spearman,pearson_R,spearman_R,constant_flag"
    )
    assert len(lines) == 1 + len(recs)
    first = lines[1].split(",")
    assert first[:7] == ["random", "24", "1", "0", "path-prod", "betweenness", "0"]
    # r = 0 gives every vertex relevance 1: a constant input, flagged
    flags = {(rec.f, rec.r): line.split(",")[-1] for rec, line in zip(recs, lines[1:])}
    assert flags[("product", 0.0)] == "1" and flags[("product", 1.0)] == "0"


def test_constant_input():
    assert constant_input(np.full(5, 3.3))
    assert not constant_input(np.arange(5.0))
    assert not constant_input(np.zeros(0))


def test_constant_input_by_relative_spread():
    # every vertex of a ring lattice has the same classic value; the engine
    # returns betweenness with rounding noise, which must count as constant
    ring = vertex_betweenness(ring_lattice(1000, 10)).values
    assert len(np.unique(ring)) > 1
    assert constant_input(ring)
    assert constant_input(harmonic_centrality(ring_lattice(100, 10)).values)
    ws = watts_strogatz(GeneratorConfig(n=200, d=10, p=1.0, seed=3))
    assert not constant_input(vertex_betweenness(ws).values)
    assert not constant_input(harmonic_centrality(ws).values)
    off = ring.copy()
    off[7] *= 1 + 1e-6
    assert not constant_input(off)
    # pearson and spearman give their 0.0 sentinel, not a correlation of noise
    y = np.arange(1000.0)
    assert pearson(ring, y) == pearson(y, ring) == 0.0
    assert spearman(ring, y) == spearman(y, ring) == 0.0
    assert spearman(off, y) != 0.0


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
    # nor anything else a request may not use: no request loads scipy,
    # threads load with the first pool
    src = str(Path(relcentral.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    modules = ["scipy.stats", "scipy", "importlib.metadata", "concurrent.futures"]
    probe = f"import sys, relcentral; print([m for m in {modules!r} if m in sys.modules])"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    assert out.stdout.strip() == "[]"
