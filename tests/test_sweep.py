import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_relevance
from relcentral import _batched
from relcentral._batched import BLOCK, _firsts, _ranges, block_size, sweep
from relcentral.centrality import PATH_METRICS, _reports
from relcentral.cli import EXIT_COMPUTE, main
from relcentral.errors import ResourceLimitError
from relcentral.generators import GeneratorConfig, ring_lattice, watts_strogatz
from relcentral.graph import build_graph, build_graph_chunks
from relcentral.io_formats import load_edge_chunks, load_relevance_csv, save_edge_csv
from relcentral.relevance import PATH_PROD, PATH_SUM, PRODUCT, RelevanceVector


def _diamond_chain(k: int):
    records = []
    for i in range(k):
        records += [(f"m{i}", f"u{i}"), (f"m{i}", f"l{i}"),
                    (f"u{i}", f"m{i + 1}"), (f"l{i}", f"m{i + 1}")]
    return build_graph(records)


def _ws600():
    return watts_strogatz(GeneratorConfig(n=600, d=10, p=1.0, seed=3))


def _peak_slots(g) -> int:
    """Neighbor slots of the widest level of one BFS from the vertex of
    highest degree, the lowest such index on ties: a plain frontier loop,
    the reference for the engine's own BFS that ``block_size`` reads."""
    if not g.vertex_count:
        return 0
    indptr, nbr, _ = g.neighbor_csr
    deg = np.diff(indptr)
    x = np.array([np.argmax(deg)])
    seen = np.zeros(g.vertex_count, dtype=bool)
    seen[x] = True
    peak = 0
    while len(x):
        slots = deg[x]
        peak = max(peak, int(slots.sum()))
        y = nbr[_ranges(slots, indptr[x])]
        y = np.sort(y[~seen[y]])
        x = y[_firsts(y)]
        seen[x] = True
    return peak


def _reference_block_size(g) -> int:
    peak = _peak_slots(g)
    return max(1, min(_batched.LEVEL_SLOTS // max(1, peak), _batched.BLOCK, _batched._fit(g)))


def _spy(monkeypatch, blocks, delay=0.0):
    """Replaces the engine's block with one that records its sources and
    returns zero credit; returns [blocks running now, most at once]."""
    running, lock = [0, 0], threading.Lock()  # now, most at once

    def spy(g, R, f, S, harmonic, betweenness):
        with lock:
            blocks.append(S.tolist())
            running[0] += 1
            running[1] = max(running)
        time.sleep(delay)
        with lock:
            running[0] -= 1
        return np.zeros(len(S)), np.zeros(g.vertex_count), np.zeros(g.edge_count)

    monkeypatch.setattr(_batched, "block", spy)
    return running


def test_block_size_keeps_the_cap_on_narrow_levels():
    assert block_size(ring_lattice(400, 10)) == BLOCK
    assert block_size(ring_lattice(3000, 10)) == BLOCK
    assert block_size(_diamond_chain(1030)) == BLOCK


def test_block_size_shrinks_on_wide_levels():
    assert block_size(_ws600()) < 64


def test_probe_starts_at_the_lowest_vertex_of_highest_degree(monkeypatch):
    # path a-b-c-d-e with indices c=0, d=1, b=2, all three of degree 2:
    # from c the widest level is {b, d} with 4 slots, from b or d 3
    g = build_graph([("c", "d"), ("b", "c"), ("d", "e"), ("a", "b")])
    assert _peak_slots(g) == 4
    assert block_size(g) == BLOCK
    monkeypatch.setattr(_batched, "LEVEL_SLOTS", 12)
    assert block_size(g) == 3  # 12 // 4; from b or d it would be 12 // 3


def test_probe_counts_the_deepest_level(monkeypatch):
    # x (index 0, degree 3) to y1..y3, each y to one z, the z a triangle:
    # levels of 3, 6 and 9 slots, the deepest the widest
    g = build_graph([("x", "y1"), ("x", "y2"), ("x", "y3"), ("y1", "z1"), ("y2", "z2"),
                     ("y3", "z3"), ("z1", "z2"), ("z2", "z3"), ("z1", "z3")])
    assert _peak_slots(g) == 9
    monkeypatch.setattr(_batched, "LEVEL_SLOTS", 18)
    assert block_size(g) == 2  # 18 // 9; without the deepest level 18 // 6


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 40), weighted=st.booleans())
def test_block_size_matches_the_reference_probe(seed, n, weighted):
    # edges among a random subset, so some graphs have none and most
    # have isolated vertices, at low indices too
    rng = np.random.default_rng(seed)
    labels = [f"v{i}" for i in range(n)]
    pairs = rng.integers(0, max(1, n), size=(int(rng.integers(0, 2 * n + 1)), 2))
    pairs = {(min(a, b), max(a, b)) for a, b in pairs.tolist() if a != b and min(a, b) % 3}
    records = [(labels[a], labels[b], float(rng.uniform(0.5, 2.0))) if weighted
               else (labels[a], labels[b]) for a, b in sorted(pairs)]
    g = build_graph(records, vertices=labels)
    assert block_size(g) == _reference_block_size(g)
    # with the clamps out of the way the size gives the probe's peak itself
    with pytest.MonkeyPatch.context() as mp:
        for name in ("BLOCK", "LEVEL_SLOTS"):
            mp.setattr(_batched, name, 1 << 20)
        mp.setattr(_batched, "BUDGET", 1 << 50)
        assert block_size(g) == _reference_block_size(g) == (1 << 20) // max(1, _peak_slots(g))


@pytest.mark.parametrize("records, vertices", [
    ([], ()),
    ([], ["a", "b", "c"]),
    ([("a", "b"), ("c",), ("d",)], ()),
    ([("c",), ("a", "b")], ()),  # vertex 0 is isolated; the probe starts at a
])
def test_block_size_is_positive_without_edges_or_with_isolated_vertices(records, vertices):
    g = build_graph(records, vertices=vertices)
    assert 1 <= block_size(g) <= BLOCK
    R = RelevanceVector.ones(g.vertex_count)
    h, v, e = _reports(g, R, PRODUCT, PATH_METRICS, 2).values()
    assert len(h.values) == g.vertex_count


def test_blocks_never_depend_on_the_worker_count(monkeypatch):
    g = _ws600()
    R = RelevanceVector.ones(g.vertex_count)
    seen = []
    for workers in (1, 2, 4):
        blocks = []
        _spy(monkeypatch, blocks)
        sweep(g, R, PRODUCT, workers, True, True)
        seen.append(sorted(blocks))
    assert seen[0] == seen[1] == seen[2]
    assert len(seen[0]) >= 10


class BlockFailed(Exception):
    pass


def test_a_failing_block_ends_the_sweep_with_its_own_error(monkeypatch):
    g = _ws600()
    b, workers, failing = block_size(g), 2, 3
    assert g.vertex_count // b >= 10
    begun, lock, real = [], threading.Lock(), _batched.block

    def block(g, R, f, S, harmonic, betweenness):
        k = int(S[0]) // b
        with lock:
            begun.append(k)
        if k == failing:
            raise BlockFailed(k)
        if k > failing:  # hold both workers, so a block not yet begun waits
            time.sleep(0.5)
        return real(g, R, f, S, harmonic, betweenness)

    monkeypatch.setattr(_batched, "block", block)
    with pytest.raises(BlockFailed):
        sweep(g, RelevanceVector.ones(g.vertex_count), PRODUCT, workers, True, True)
    # blocks up to failing + 2 * workers - 1 were handed to the pool before
    # the failure reached the merge; those not begun by then never begin
    assert failing in begun and max(begun) <= failing + workers
    assert len(begun) == len(set(begun))


@pytest.mark.parametrize("weighted", [False, True])
def test_many_blocks_give_the_same_bytes_for_any_worker_count(weighted):
    g = _ws600()
    if weighted:
        rng = np.random.default_rng(8)
        (u, v), lab = g.edge_endpoints, g.labels
        g = build_graph_chunks([([lab[i] for i in u.tolist()], [lab[i] for i in v.tolist()],
                                 rng.uniform(0.5, 2.0, len(u)).tolist())])
    assert g.vertex_count // block_size(g) >= 10
    R = random_relevance(np.random.default_rng(9), g.vertex_count)
    for f in (PRODUCT, PATH_PROD, PATH_SUM):
        one = _reports(g, R, f, PATH_METRICS, 1).values()
        for workers in (2, 4):
            for a, b in zip(one, _reports(g, R, f, PATH_METRICS, workers).values()):
                assert a.values.tobytes() == b.values.tobytes()


def test_budget_limits_blocks_at_once_but_not_their_size(monkeypatch):
    g = _ws600()
    b = block_size(g)
    # room for the arcs of two blocks
    monkeypatch.setattr(_batched, "BUDGET", 2 * b * _batched.ARC_BYTES * g.edge_count)
    assert block_size(g) == b
    blocks = []
    running = _spy(monkeypatch, blocks, delay=0.005)
    sweep(g, RelevanceVector.ones(g.vertex_count), PRODUCT, 4, True, True)
    assert {len(S) for S in blocks[:-1]} == {b}
    assert running[1] <= 2


def test_budget_below_one_source_raises_before_any_block(monkeypatch):
    g = ring_lattice(40, 4)
    monkeypatch.setattr(_batched, "BUDGET", _batched.ARC_BYTES * g.edge_count - 1)
    blocks = []
    _spy(monkeypatch, blocks)
    with pytest.raises(ResourceLimitError):
        sweep(g, RelevanceVector.ones(g.vertex_count), PRODUCT, 1, True, True)
    assert blocks == []


def test_budget_below_one_source_exits_3(tmp_path, monkeypatch, capsys):
    g = ring_lattice(40, 4)
    edges = str(tmp_path / "g.csv")
    save_edge_csv(g, edges)
    monkeypatch.setattr(_batched, "BUDGET", _batched.ARC_BYTES * g.edge_count - 1)
    assert main(["compute", edges, "--metric", "harmonic"]) == EXIT_COMPUTE
    assert "budget" in capsys.readouterr().err
    assert main(["compute", edges, "--metric", "degree"]) == 0


# traced peak of the first ring-deep block, in MiB: with int64 slots, f
# and the harmonic terms over the whole block and the flat ids kept, it
# was 12.40 (product) and 13.45 (path-prod); it is 9.96 and 10.74 now
@pytest.mark.parametrize("f, bound", [(PRODUCT, 11.2), (PATH_PROD, 12.1)], ids=["product", "path-prod"])
def test_one_deep_block_holds_its_dag_and_few_block_sized_arrays(f, bound):
    data = Path(__file__).resolve().parent / "data"
    g = build_graph_chunks(load_edge_chunks(data / "ring-deep.edges.csv"))
    R = load_relevance_csv(data / "ring-deep.relevance.csv", g)
    S = np.arange(BLOCK)
    assert block_size(g) == BLOCK
    assert {slot.dtype for *_, slot in _batched._bfs(g, S).out} == {np.dtype(np.int32)}
    _batched.block(g, R, f, S, True, True)  # the graph's neighbor lists are built once
    tracemalloc.start()
    try:
        _batched.block(g, R, f, S, True, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * 2**20


# --- the distance front-end ---


def _dag_arrays(dag) -> list:
    """Every array of a block's DAG, as (dtype, bytes)."""
    arrays = [dag.node, dag.cut, dag.dist] + [np.asarray(a) for arcs in dag.into + dag.out
                                              for a in arcs]
    return [(a.dtype.str, a.tobytes()) for a in arrays]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30), ints=st.booleans(),
       parts=st.integers(1, 3))
def test_distance_front_end_does_not_depend_on_the_chunk(seed, n, ints, parts):
    # edges only within parts (v % parts), so a graph of several parts is
    # disconnected, and among a random subset, so most have isolated
    # vertices; weights 1 to 3 make many ties
    rng = np.random.default_rng(seed)
    labels = [f"v{i}" for i in range(n)]
    pairs = rng.integers(0, n, size=(int(rng.integers(0, 3 * n + 1)), 2))
    pairs = {(min(a, b), max(a, b)) for a, b in pairs.tolist() if a != b and (a - b) % parts == 0}
    weights = rng.integers(1, 4, len(pairs)) if ints else rng.uniform(0.5, 2.0, len(pairs))
    records = [(labels[a], labels[b], float(w)) for (a, b), w in zip(sorted(pairs), weights)]
    g = build_graph(records, vertices=labels)
    S = np.sort(rng.permutation(n)[:int(rng.integers(1, n + 1))])
    runs = []
    for chunk in (1, 5, 64, 1 << 16):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_batched, "_CHUNK", chunk)
            runs.append((_batched._distances(g, S), _batched._by_distance(g, S)))
    dist, dag = runs[-1]
    # each reached node once, each level ascending
    assert np.sort(dag.node).tolist() == np.flatnonzero(np.isfinite(dist)).tolist()
    for lo, hi in zip(dag.cut[:-1].tolist(), dag.cut[1:].tolist()):
        assert lo < hi and np.all(np.diff(dag.node[lo:hi]) > 0)
    for d, other in runs[:-1]:
        assert d.tobytes() == dist.tobytes()
        assert _dag_arrays(other) == _dag_arrays(dag)


def test_sweep_skips_the_probe_exactly_when_one_block_holds_every_source(monkeypatch):
    data = Path(__file__).resolve().parent / "data"
    g = build_graph_chunks(load_edge_chunks(data / "weighted-sparse.edges.csv"))
    R = load_relevance_csv(data / "weighted-sparse.relevance.csv", g)
    n, slots, peak = g.vertex_count, 2 * g.edge_count, _peak_slots(g)
    assert n <= min(BLOCK, _batched._fit(g)) and n * peak < n * slots <= _batched.LEVEL_SLOTS
    probes, probe = [], block_size
    monkeypatch.setattr(_batched, "block_size", lambda g: probes.append(probe(g)) or probes[-1])

    def run(**patch):
        probes.clear()
        with pytest.MonkeyPatch.context() as mp:
            for name, value in patch.items():
                mp.setattr(_batched, name, value)
            out = [sweep(g, R, f, 1, True, True) for f in (PRODUCT, PATH_PROD)]
        return [a.tobytes() for parts in out for a in parts], list(probes)

    want, seen = run()
    assert seen == []
    assert run(LEVEL_SLOTS=n * slots) == (want, [])
    assert run(BLOCK=n) == (want, [])
    # the probe runs, and finds one block of every source: the same bytes
    got, seen = run(LEVEL_SLOTS=n * slots - 1)
    assert got == want and len(seen) == 2 and min(seen) >= n
    assert run(LEVEL_SLOTS=n * peak) == (want, [n, n])
    # the probe runs, and finds smaller blocks
    assert run(BLOCK=n - 1)[1] == [n - 1, n - 1]
    assert run(BUDGET=_batched.ARC_BYTES * g.edge_count * (n - 1))[1] == [n - 1, n - 1]
