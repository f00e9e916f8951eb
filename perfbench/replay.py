"""Traced replay of request cycles and the per-layer split.

``cmd_compute`` is replayed step by step through relcentral's public
functions, one span per step under a ``cli.request`` span; the replay
does exactly the work of the request, so its wall time minus the
untraced cycle is the tracing overhead. After each replayed request the
lower layers it used are called once more, directly, as sibling spans
under an ``explain`` span; their time explains the ``centrality`` spans
and is not part of the replayed cycle.
"""

from __future__ import annotations

import contextlib
import gc
import io
import os
import sys
import time
import traceback

import numpy as np

from client import median
from reference import ALL_METRICS
from spans import Tracer, lookup_entry_points

REPLAY_NEEDS = (
    "io_formats.load_edges", "graph.build", "io_formats.load_relevance",
    "relevance.function", "relevance.variant", "centrality.degree",
    "centrality.harmonic", "centrality.betweenness", "io_formats.document", "io_formats.json",
)
BLOCK = 256  # sources per pair_value_block call, as in the batched engine

# (metric, unit, better) in the order BENCHMARK.json lists them
LAYER_METRICS = [
    ("io_formats.load_edges_s", "s", "lower"),
    ("io_formats.load_relevance_s", "s", "lower"),
    ("io_formats.write_s", "s", "lower"),
    ("io_formats.bytes_out", "bytes", "lower"),
    ("graph.build_s", "s", "lower"),
    ("graph.arrays_s", "s", "lower"),
    ("graph.edges", "count", "lower"),
    ("relevance.f_block_s", "s", "lower"),
    ("centrality.degree_s", "s", "lower"),
    ("centrality.harmonic_s", "s", "lower"),
    ("centrality.betweenness_s", "s", "lower"),
    ("centrality.accumulate_s", "s", "lower"),
    ("batched.harmonic_s", "s", "lower"),
    ("batched.betweenness_s", "s", "lower"),
    ("batched.blocks", "count", "lower"),
    ("batched.levels", "count", "lower"),
    ("batched.frontier_density", "ratio", "higher"),
    ("batched.level_ms", "ms", "lower"),
    ("paths.sssp_s", "s", "lower"),
    ("paths.settled", "count", "lower"),
    ("paths.dag_edges", "count", "lower"),
    ("paths.sigma_bits_max", "bits", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("threads.par_s", "s", "lower"),
    ("threads.speedup", "ratio", "higher"),
]


class TracedRun:
    def __init__(self, bench):
        self.bench = bench
        self.tracer = Tracer()
        self.fns, self.absent = lookup_entry_points()
        self.walls: list[float] = []  # replayed cycle wall times
        self.cycle_ids: list[int] = []
        self.counts: dict = {}
        if bench.wl.computes_paths and not bench.wl.weighted:
            self.counts["batched"] = bench.ref.batched_counts()
        missing = [k for k in REPLAY_NEEDS if k not in self.fns]
        self.can_replay = not missing
        if missing:
            self.absent["cli.replay"] = f"needs {', '.join(missing)}"

    # --- one cycle ---

    def cycle(self, cycle, tally) -> None:
        if not self.can_replay:
            return
        done, wall = [], 0.0
        for j in range(len(self.bench.wl.requests)):
            gc.collect()  # as before each untraced request
            t0 = time.perf_counter()
            done.append(self._replay(cycle, j, f"c{cycle.index}-r{j}"))
            wall += time.perf_counter() - t0
        self.walls.append(wall)
        self.cycle_ids.append(cycle.index)
        for j, state in enumerate(done):
            cycle.verify(j, 0 if state else 1, tally)
            if state:
                self._explain(j, f"c{cycle.index}-r{j}", *state)

    def _replay(self, cycle, j: int, rid: str):
        """The steps of cmd_compute, each in its own span; None on failure."""
        F, span = self.fns, self.tracer.span
        f_sel, metric = self.bench.wl.requests[j]
        edges, rel = str(self.bench.edges_path), str(cycle.rel_path)
        sink = io.StringIO()
        try:
            with span("cli.request", rid), contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                with span("io_formats.load_edges", rid):
                    records = F["io_formats.load_edges"](edges)
                with span("graph.build", rid):
                    g = F["graph.build"](records)
                with span("io_formats.load_relevance", rid):
                    R = F["io_formats.load_relevance"](rel, g)
                f = F["relevance.function"](F["relevance.variant"](f_sel))
                source = os.path.basename(rel)
                wanted = list(ALL_METRICS) if metric == "all" else [metric]
                if f.variant.is_path and "degree" in wanted:
                    wanted.remove("degree")  # the CLI skips degree for path f
                reports = []
                if "degree" in wanted:
                    with span("centrality.degree", rid):
                        reports.append(F["centrality.degree"](g, R, f, relevance_source=source))
                if "harmonic" in wanted:
                    with span("centrality.harmonic", rid):
                        reports.append(F["centrality.harmonic"](
                            g, R, f, workers=1, relevance_source=source))
                if "betweenness" in wanted or "edge-betweenness" in wanted:
                    with span("centrality.betweenness", rid):
                        vrep, erep = F["centrality.betweenness"](
                            g, R, f, workers=1, relevance_source=source)
                    reports += [rep for name, rep in (("betweenness", vrep),
                                ("edge-betweenness", erep)) if name in wanted]
                if "cli.print_top10" in F:
                    for rep in reports:
                        F["cli.print_top10"](rep)
                with span("io_formats.write", rid) as counts:
                    doc = F["io_formats.document"](g, reports, os.path.basename(edges))
                    data = F["io_formats.json"](doc)
                    with open(cycle.out_path(j), "wb") as fh:
                        fh.write(data)
                    counts["bytes"] = len(data)
        except Exception:  # a failing request is counted, the run goes on
            traceback.print_exc(file=sys.__stderr__)
            return None
        return records, g, R, f, wanted

    def _explain(self, j, rid, records, g, R, f, wanted) -> None:
        F, span = self.fns, self.tracer.span
        paths_used = any(m != "degree" for m in wanted)
        betweenness = "betweenness" in wanted or "edge-betweenness" in wanted
        with span("explain", rid):
            if j == 0:
                g2 = F["graph.build"](records)
                self._sibling("graph.arrays", rid,
                              lambda: (g2.adjacency_matrix, g2.edge_endpoints))
            if paths_used and f.variant.is_pairwise:
                n = g.vertex_count
                self._sibling("relevance.f_block", rid, lambda: [
                    F["relevance.f_block"](f, np.arange(s, min(s + BLOCK, n)), R)
                    for s in range(0, n, BLOCK)])
            if paths_used and not g.weighted:
                if "harmonic" in wanted:
                    self._sibling("batched.harmonic", rid,
                                  lambda: F["batched.harmonic"](g, R, f, 1))
                if betweenness:
                    self._sibling("batched.betweenness", rid,
                                  lambda: F["batched.betweenness"](g, R, f, 1))
            if paths_used and g.weighted and betweenness:
                dags = self._sibling("paths.sssp", rid, lambda: [
                    F["paths.sssp"](g, s) for s in range(g.vertex_count)])
                if dags and "paths" not in self.counts:
                    try:
                        self.counts["paths"] = _dag_counts(dags)
                    except AttributeError as exc:  # DAG record reshaped
                        self.absent["paths.counts"] = repr(exc)

    def _sibling(self, name: str, rid: str, call):
        if name in self.absent:
            return None
        try:
            with self.tracer.span(name, rid):
                return call()
        except (AttributeError, TypeError, KeyError) as exc:  # entry point renamed or reshaped
            self.absent[name] = f"call failed: {exc!r}"
            return None

    # --- results ---

    def metrics(self, compute_samples: list[float], par_samples: list[float],
                edge_count: int) -> tuple[dict, dict]:
        """Per-layer metric values and a note per metric (base, absence)."""
        spans = self.tracer.finished()
        by_cycle = {c: {} for c in self.cycle_ids}
        calls = {c: {} for c in self.cycle_ids}
        steps = {c: 0.0 for c in self.cycle_ids}
        request_ids = {s["id"] for s in spans if s["name"] == "cli.request"}
        for s in spans:
            c = int(s["request"][1:].split("-")[0])
            if c not in by_cycle:
                continue
            by_cycle[c][s["name"]] = by_cycle[c].get(s["name"], 0.0) + s["duration"]
            calls[c][s["name"]] = calls[c].get(s["name"], 0) + 1
            if s["name"] == "io_formats.write":
                by_cycle[c]["bytes"] = by_cycle[c].get("bytes", 0) + s["counts"].get("bytes", 0)
            if s["parent"] in request_ids:
                steps[c] += s["duration"]

        def med(name):
            return median([by_cycle[c].get(name, 0.0) for c in self.cycle_ids])

        compute = median(compute_samples)
        out, notes = {}, {}
        for layer in ("io_formats.load_edges", "io_formats.load_relevance", "io_formats.write",
                      "graph.build", "graph.arrays", "relevance.f_block", "centrality.degree",
                      "centrality.harmonic", "centrality.betweenness", "batched.harmonic",
                      "batched.betweenness", "paths.sssp"):
            out[layer + "_s"] = med(layer)
            if layer in self.absent:
                notes[layer + "_s"] = f"absent: {self.absent[layer]}"
            elif not any(layer in by_cycle[c] for c in self.cycle_ids):
                notes[layer + "_s"] = "not called on this workload"
        out["io_formats.bytes_out"] = med("bytes")
        out["graph.edges"] = edge_count

        batched = self.counts.get("batched") if out["batched.betweenness_s"] > 0 else None
        if batched:
            out["batched.blocks"] = batched["blocks"]
            out["batched.levels"] = batched["levels"]
            out["batched.frontier_density"] = batched["frontier_entries"] / batched["frontier_slots"]
            n_calls = median([calls[c].get("batched.betweenness", 0) for c in self.cycle_ids])
            out["batched.level_ms"] = 1000.0 * out["batched.betweenness_s"] / (n_calls * batched["levels"])
            notes["batched.frontier_density"] = (
                f"{batched['frontier_entries']} frontier entries / {batched['frontier_slots']} "
                "block slots (b*n*levels), computed from reference distances")
            notes["batched.levels"] = "sum over blocks of max source eccentricity, computed from reference distances"
            notes["batched.level_ms"] = (f"batched.betweenness_s per call / {batched['levels']} levels, "
                                         f"{n_calls:g} calls per cycle")
        else:
            for k in ("batched.blocks", "batched.levels", "batched.frontier_density", "batched.level_ms"):
                out[k] = 0
                notes[k] = "batched engine not called on this workload"
        dag = self.counts.get("paths")
        for k in ("settled", "dag_edges", "sigma_bits_max"):
            out[f"paths.{k}"] = dag[k] if dag else 0
            if dag:
                notes[f"paths.{k}"] = "one all-source sssp sweep"
        if out["paths.sssp_s"] > 0:
            out["centrality.accumulate_s"] = out["centrality.betweenness_s"] - out["paths.sssp_s"]
            notes["centrality.accumulate_s"] = "centrality.betweenness_s - paths.sssp_s"
        else:
            out["centrality.accumulate_s"] = 0
            notes["centrality.accumulate_s"] = "no sssp sweep on this workload"
        # untraced and traced cycles alternate, so each pair ran in the same
        # machine phase; their differences are medians of pairs
        pairs = list(zip(compute_samples, self.walls, [steps[c] for c in self.cycle_ids]))
        out["cli.self_s"] = median([u - st for u, _, st in pairs])
        out["trace.overhead_s"] = median([t - u for u, t, _ in pairs])
        notes["cli.self_s"] = "untraced cycle - traced step spans, median over adjacent pairs"
        notes["trace.overhead_s"] = (f"traced cycle - untraced cycle, median over {len(pairs)} "
                                     f"adjacent pairs (untraced median {compute:.6f} s)")
        out["threads.par_s"] = median(par_samples)
        out["threads.speedup"] = compute / out["threads.par_s"] if out["threads.par_s"] else 0
        notes["threads.par_s"] = f"untraced cycle at --workers nproc, median of {len(par_samples)}"
        notes["threads.speedup"] = f"compute_s {compute:.6f} s / threads.par_s"
        return out, notes

    def self_time_check(self, compute_samples) -> str:
        """How closely the replay's self times add up to its wall time, and
        so account for the untraced cycle within trace.overhead_s."""
        spans = self.tracer.finished()
        replay_ids, per_cycle = set(), {c: 0.0 for c in self.cycle_ids}
        for s in spans:  # parents precede children, so one pass finds every replay span
            if s["name"] == "cli.request" or s["parent"] in replay_ids:
                replay_ids.add(s["id"])
                per_cycle[int(s["request"][1:].split("-")[0])] += s["self"]
        gaps = [abs(per_cycle[c] - wall) for c, wall in zip(self.cycle_ids, self.walls)]
        diffs = [per_cycle[c] - u for c, u in zip(self.cycle_ids, compute_samples)]
        return (f"replay self times sum to the traced cycle within {max(gaps, default=0):.6f} s, "
                f"and differ from the untraced cycle by {median(diffs):+.6f} s (median over pairs)")


def _dag_counts(dags) -> dict:
    return {
        "settled": sum(len(d.settle_order) for d in dags),
        "dag_edges": sum(len(p) for d in dags for p in d.preds),
        "sigma_bits_max": max(int(x).bit_length() for d in dags for x in d.sigma),
    }
