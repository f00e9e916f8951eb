"""Spans around calls into relcentral's layers, recorded by the benchmark.

Spans live in memory (name, start, end, parent span, request id) and are
written out once, with self time (duration minus the time covered by
child spans), when the run ends. Layer entry points are looked up by
name when the traced run starts, so a function that a later change
deletes is reported as an absent layer instead of crashing the run.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager

# layer metric -> (module under relcentral, attribute)
ENTRY_POINTS = {
    "io_formats.load_edges": ("io_formats", "load_edge_csv"),
    "io_formats.load_relevance": ("io_formats", "load_relevance_csv"),
    "io_formats.document": ("io_formats", "build_result_document"),
    "io_formats.json": ("io_formats", "write_results_json"),
    "graph.build": ("graph", "build_graph"),
    "relevance.function": ("relevance", "RelevanceFunction"),
    "relevance.variant": ("relevance", "Variant"),
    "relevance.f_block": ("relevance", "pair_value_block"),
    "centrality.degree": ("centrality", "degree_centrality"),
    "centrality.harmonic": ("centrality", "harmonic_centrality"),
    "centrality.betweenness": ("centrality", "betweenness_reports"),
    "batched.harmonic": ("_batched", "batched_harmonic"),
    "batched.betweenness": ("_batched", "batched_betweenness"),
    "paths.sssp": ("paths", "sssp"),
    "cli.print_top10": ("cli", "_print_top10"),
}


def lookup_entry_points() -> tuple[dict, dict]:
    """(found name -> callable, absent name -> reason)."""
    found, absent = {}, {}
    for name, (module, attr) in ENTRY_POINTS.items():
        try:
            mod = importlib.import_module(f"relcentral.{module}")
        except ImportError as exc:
            absent[name] = f"module relcentral.{module}: {exc}"
            continue
        fn = getattr(mod, attr, None)
        if fn is None:
            absent[name] = f"relcentral.{module}.{attr} not found"
        else:
            found[name] = fn
    return found, absent


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, request: str):
        """Yields a dict whose entries are stored as the span's counts."""
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "request": request,
               "parent": self._stack[-1] if self._stack else None, "counts": {}}
        self.spans.append(rec)
        self._stack.append(sid)
        rec["start"] = time.perf_counter()
        try:
            yield rec["counts"]
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def finished(self) -> list[dict]:
        """Spans with duration and self time filled in."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            s["duration"] = s["end"] - s["start"]
            if s["parent"] is not None:
                child_time[s["parent"]] += s["duration"]
        for s, c in zip(self.spans, child_time):
            s["self"] = s["duration"] - c
        return self.spans

    def write(self, path, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "spans": self.finished()}, fh, indent=1)
            fh.write("\n")
