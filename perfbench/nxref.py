"""networkx as an outside reference on the classic metrics (informational).

    python3 perfbench/run.py --networkx [--workload NAME] [--seed N]

For each workload graph with uniform relevance, times one relcentral
request (``--metric all``, or ``degree`` on ingest-large) beside
networkx, and checks that relcentral's vertex and edge betweenness are
2 x the unnormalized networkx values (relcentral sums ordered pairs)
and that harmonic closeness and degree match. Not part of the gated
runs; the output never affects a benchmark result.
"""

from __future__ import annotations

import json
import shutil
import time

import numpy as np

import client
import inputs
from inputs import WORKLOADS
from reference import close


def _close(a, b) -> bool:
    return bool(np.all(close(a, b)))


def _compare(wl, gi, doc: dict) -> tuple[dict, dict]:
    """networkx timings and parity results for one relcentral document."""
    import networkx as nx

    G = nx.Graph()
    G.add_nodes_from(range(gi.n))
    weights = gi.w if gi.w is not None else np.ones(len(gi.u))
    G.add_weighted_edges_from(zip(gi.u.tolist(), gi.v.tolist(), weights.tolist()))
    weight = "weight" if gi.w is not None else None
    times, parity = {}, {}

    def vertex(name):
        table = doc["vertices"][name]
        return np.array([table[str(i)] for i in range(gi.n)])

    if not wl.computes_paths:
        t0 = time.perf_counter()
        deg = dict(G.degree())
        times["degree"] = time.perf_counter() - t0
        parity["degree"] = _close(vertex("degree"), [deg[i] for i in range(gi.n)])
        return times, parity
    t0 = time.perf_counter()
    vb = nx.betweenness_centrality(G, normalized=False, weight=weight)
    times["betweenness"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    eb = nx.edge_betweenness_centrality(G, normalized=False, weight=weight)
    times["edge-betweenness"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    hc = nx.harmonic_centrality(G, distance=weight)
    times["harmonic"] = time.perf_counter() - t0
    parity["betweenness = 2 x nx"] = _close(vertex("betweenness"), [2 * vb[i] for i in range(gi.n)])
    got_e = [row["value"] for row in doc["edges"]["edge-betweenness"]]
    want_e = [2 * eb.get((int(r["source"]), int(r["target"])), eb.get((int(r["target"]), int(r["source"]))))
              for r in doc["edges"]["edge-betweenness"]]
    parity["edge-betweenness = 2 x nx"] = _close(got_e, want_e)
    parity["harmonic = nx"] = _close(vertex("harmonic"), [hc[i] for i in range(gi.n)])
    return times, parity


def main(workload: str | None, seed: int, root) -> int:
    import relcentral.cli

    work = root / ".perfbench" / f"networkx-{time.time_ns()}"
    work.mkdir(parents=True)
    rows = []
    try:
        for name in [workload] if workload else list(WORKLOADS):
            wl = WORKLOADS[name]
            gi = inputs.make_graph(wl, seed)
            edges, out = work / "edges.csv", work / "out.json"
            inputs.write_edges(gi, edges)
            metric = "all" if wl.computes_paths else "degree"
            argv = ["compute", str(edges), "--metric", metric, "--out", str(out), "--workers", "1"]
            seconds, code = client.timed(lambda: client.in_process(relcentral.cli.main, argv))
            doc = json.loads(out.read_text(encoding="utf-8")) if code == 0 else None
            times, parity = _compare(wl, gi, doc) if doc else ({}, {"relcentral exit": False})
            rows.append({"workload": name, "relcentral_s": seconds, "networkx_s": times,
                         "networkx_total_s": sum(times.values()), "parity": parity})
            print(f"{name:<16} relcentral {seconds:8.3f} s (metric {metric}, classic)   "
                  f"networkx {sum(times.values()):8.3f} s {json.dumps({k: round(v, 3) for k, v in times.items()})}")
            for what, good in parity.items():
                print(f"  {'ok  ' if good else 'MISS'} {what}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"networkx_reference": rows}))
    return 0
