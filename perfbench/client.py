"""Requests against the relcentral CLI, one at a time, each checked.

A request is ``relcentral compute <edges> --relevance <rel> --f <f>
--metric <m> --out <json> --workers <k>``. In-process requests call
``relcentral.cli.main`` with stdout and stderr captured; cold requests
run the CLI in fresh processes started by ``cold_client.py``.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
from cold_client import REQUEST_TIMEOUT_S
from reference import Reference


@dataclass
class Tally:
    """Requests attempted and failed, with the first few failure reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)

    def record(self, errors: list[str], where: str) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{where}: {errors[0]}")


class Bench:
    """Inputs, reference and request runners for one workload and seed."""

    def __init__(self, wl, seed: int, work: Path, root: Path, src: Path, cli_main):
        self.wl, self.seed, self.work, self.root = wl, seed, work, root
        self.gi = inputs.make_graph(wl, seed)
        self.edges_path = work / "edges.csv"
        inputs.write_edges(self.gi, self.edges_path)
        self.ref = Reference(self.gi, wl.computes_paths)
        self.env = child_env(src)
        self.tally = Tally()
        self.cli_main = cli_main
        self._cycles = 0
        # the benchmark's own objects should not lengthen the program's GC passes
        gc.collect()
        gc.freeze()

    def new_cycle(self):
        cycle = Cycle(self, self._cycles)
        self._cycles += 1
        return cycle

    def warm_cycle(self, workers: int) -> list[float]:
        """One in-process cycle; returns the wall time of each request."""
        cycle = self.new_cycle()
        timings = []
        for j in range(len(self.wl.requests)):
            gc.collect()  # like a fresh process, a request starts with no garbage pending
            timings.append(timed(lambda: in_process(self.cli_main, cycle.argv(j, workers))))
        for j, (_, code) in enumerate(timings):
            cycle.verify(j, code, self.tally)
        cycle.done()
        return [dt for dt, _ in timings]

    def cold_cycle(self) -> dict:
        """One cycle of fresh CLI processes; see ``cold``."""
        cycle = self.new_cycle()
        n = len(self.wl.requests)
        out = cold([cycle.argv(j, 1) for j in range(n)], self.env, self.root)
        for j, req in enumerate(out["requests"]):
            cycle.verify(j, req["code"], self.tally)
        cycle.done()
        return out


class Cycle:
    """Inputs of one request cycle: the run's edge file plus a relevance
    file of its own, so no two cycles repeat a request."""

    def __init__(self, bench, index: int):
        self.bench = bench
        self.index = index
        self.r = inputs.make_relevance(bench.wl, bench.seed, index)
        self.rel_path = bench.work / f"rel-{index}.csv"
        inputs.write_relevance(self.r, self.rel_path)

    def argv(self, j: int, workers: int) -> list[str]:
        f, metric = self.bench.wl.requests[j]
        return ["compute", str(self.bench.edges_path), "--relevance", str(self.rel_path),
                "--f", f, "--metric", metric, "--out", str(self.out_path(j)),
                "--workers", str(workers)]

    def out_path(self, j: int) -> Path:
        return self.bench.work / f"out-{self.index}-{j}.json"

    def verify(self, j: int, code: int, tally: Tally) -> None:
        """Count request j as failed on a non-zero exit or any value that
        misses the reference; the output file is removed afterwards."""
        f, metric = self.bench.wl.requests[j]
        where = f"cycle {self.index} request {j} ({f}, {metric})"
        path = self.out_path(j)
        if code != 0:
            errors = [f"exit code {code}"]
        else:
            try:
                with open(path, encoding="utf-8") as fh:
                    doc = json.load(fh)
            except (OSError, ValueError) as exc:
                errors = [f"unreadable output: {exc}"]
            else:
                expected = self.bench.ref.expected(f, metric, self.r)
                errors = self.bench.ref.check(doc, expected)
        tally.record(errors, where)
        path.unlink(missing_ok=True)

    def done(self) -> None:
        self.rel_path.unlink(missing_ok=True)


def in_process(cli_main, argv: list[str]) -> int:
    """One request through ``relcentral.cli.main``; output is discarded."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return cli_main(argv)
        except SystemExit as exc:  # argparse rejecting the request
            return exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crashing request is a failed request, the run goes on
            traceback.print_exc(file=sys.__stderr__)
            return 1


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def cold(argvs: list[list[str]], env: dict, cwd: Path) -> dict:
    """Requests as fresh relcentral CLI processes, started by ``cold_client.py``:
    {"requests": [{"code", "seconds", "import_seconds"}, ...], "peak_rss_mb"}."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("cold_client.py")), json.dumps(argvs)],
        env=env, cwd=cwd, capture_output=True, text=True, check=True,
        timeout=REQUEST_TIMEOUT_S * len(argvs) + 30,
    )
    return json.loads(done.stdout)


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def median(xs) -> float:
    return float(np.median(xs)) if len(xs) else 0.0
