import threading
import time

import numpy as np
import pytest

from conftest import random_relevance
from relcentral import _sweep
from relcentral._sweep import BLOCK, _peak_slots, block_size, sweep
from relcentral.centrality import _path_reports
from relcentral.cli import EXIT_COMPUTE, main
from relcentral.errors import ResourceLimitError
from relcentral.generators import GeneratorConfig, ring_lattice, watts_strogatz
from relcentral.graph import build_graph, build_graph_chunks
from relcentral.io_formats import save_edge_csv
from relcentral.relevance import PATH_PROD, PATH_SUM, PRODUCT, RelevanceVector


def _diamond_chain(k: int):
    records = []
    for i in range(k):
        records += [(f"m{i}", f"u{i}"), (f"m{i}", f"l{i}"),
                    (f"u{i}", f"m{i + 1}"), (f"l{i}", f"m{i + 1}")]
    return build_graph(records)


def _ws600():
    return watts_strogatz(GeneratorConfig(n=600, d=10, p=1.0, seed=3))


def _spy(blocks, delay=0.0):
    """A kernel that records its sources and returns zero credit."""
    running, lock = [0, 0], threading.Lock()  # now, most at once

    def kernel(g, R, f, S, harmonic, betweenness):
        with lock:
            blocks.append(S.tolist())
            running[0] += 1
            running[1] = max(running)
        time.sleep(delay)
        with lock:
            running[0] -= 1
        return np.zeros(len(S)), np.zeros(g.vertex_count), np.zeros(g.edge_count)

    return kernel, running


def test_block_size_keeps_the_cap_on_narrow_levels():
    assert block_size(ring_lattice(400, 10)) == BLOCK
    assert block_size(ring_lattice(3000, 10)) == BLOCK
    assert block_size(_diamond_chain(1030)) == BLOCK


def test_block_size_shrinks_on_wide_levels():
    assert block_size(_ws600()) < 64


def test_probe_starts_at_the_lowest_vertex_of_highest_degree():
    # path a-b-c-d-e with indices c=0, d=1, b=2, all three of degree 2:
    # from c the widest level is {b, d} with 4 slots, from b or d 3
    g = build_graph([("c", "d"), ("b", "c"), ("d", "e"), ("a", "b")])
    assert _peak_slots(g) == 4
    assert block_size(g) == BLOCK


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
    h, v, e = _path_reports(g, R, PRODUCT, 2, None)
    assert len(h.values) == g.vertex_count


def test_blocks_never_depend_on_the_worker_count():
    g = _ws600()
    R = RelevanceVector.ones(g.vertex_count)
    seen = []
    for workers in (1, 2, 4):
        blocks = []
        sweep(_spy(blocks)[0], g, R, PRODUCT, workers, True, True)
        seen.append(sorted(blocks))
    assert seen[0] == seen[1] == seen[2]
    assert len(seen[0]) >= 10


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
        one = _path_reports(g, R, f, 1, None)
        for workers in (2, 4):
            for a, b in zip(one, _path_reports(g, R, f, workers, None)):
                assert a.values.tobytes() == b.values.tobytes()


def test_budget_limits_blocks_at_once_but_not_their_size(monkeypatch):
    g = _ws600()
    b = block_size(g)
    # room for the arcs of two blocks
    monkeypatch.setattr(_sweep, "BUDGET", 2 * b * _sweep.ARC_BYTES * g.edge_count)
    assert block_size(g) == b
    blocks = []
    kernel, running = _spy(blocks, delay=0.005)
    sweep(kernel, g, RelevanceVector.ones(g.vertex_count), PRODUCT, 4, True, True)
    assert {len(S) for S in blocks[:-1]} == {b}
    assert running[1] <= 2


def test_budget_below_one_source_raises_before_any_block(monkeypatch):
    g = ring_lattice(40, 4)
    monkeypatch.setattr(_sweep, "BUDGET", _sweep.ARC_BYTES * g.edge_count - 1)
    blocks = []
    with pytest.raises(ResourceLimitError):
        sweep(_spy(blocks)[0], g, RelevanceVector.ones(g.vertex_count), PRODUCT, 1, True, True)
    assert blocks == []


def test_budget_below_one_source_exits_3(tmp_path, monkeypatch, capsys):
    g = ring_lattice(40, 4)
    edges = str(tmp_path / "g.csv")
    save_edge_csv(g, edges)
    monkeypatch.setattr(_sweep, "BUDGET", _sweep.ARC_BYTES * g.edge_count - 1)
    assert main(["compute", edges, "--metric", "harmonic"]) == EXIT_COMPUTE
    assert "budget" in capsys.readouterr().err
    assert main(["compute", edges, "--metric", "degree"]) == 0
