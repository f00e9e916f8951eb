"""Self-test of the output checks, at tiny sizes, in seconds.

    python3 perfbench/run.py --self-test

For each workload at a tiny size it shows that correct outputs pass,
that every table with one value perturbed by a relative 1e-6 is counted
as a failure, and that a request exiting non-zero (in-process and as a
fresh process) is counted as a failure. Exits 0 only if all of that holds.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import time

import client
from inputs import WORKLOADS

TINY_N = {"ws-lowdiam": 40, "ring-deep": 30, "weighted-sparse": 25, "ingest-large": 200}


def _corrupt_each_table(bench, cycle, j):
    """Yield (table name, failure count) after perturbing one value per table."""
    path = cycle.out_path(j)
    clean = path.read_text(encoding="utf-8")
    doc = json.loads(clean)
    tables = [("vertices", name) for name in doc["vertices"]] + [("edges", name) for name in doc["edges"]]
    for kind, name in tables:
        bad = json.loads(clean)
        if kind == "vertices":
            label = next(iter(bad[kind][name]))
            bad[kind][name][label] *= 1.0 + 1e-6
        else:
            bad[kind][name][0]["value"] *= 1.0 + 1e-6
        path.write_text(json.dumps(bad), encoding="utf-8")
        tally = client.Tally()
        cycle.verify(j, 0, tally)
        yield f"{kind}/{name}", tally.failed


def main(root, src) -> int:
    import relcentral.cli

    work = root / ".perfbench" / f"selftest-{time.time_ns()}"
    work.mkdir(parents=True)
    ok = True

    def report(what: str, passed: bool) -> None:
        nonlocal ok
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'}  {what}")

    try:
        for name, n in TINY_N.items():
            wl = dataclasses.replace(WORKLOADS[name], n=n)
            bench = client.Bench(wl, 7, work, root, src, relcentral.cli.main)
            bench.warm_cycle(1)
            report(f"{name} n={n}: clean cycle passes ({bench.tally.attempted} requests)",
                   bench.tally.failed == 0)
            for j in range(len(wl.requests)):
                cycle = bench.new_cycle()
                client.in_process(bench.cli_main, cycle.argv(j, 1))
                for table, failed in _corrupt_each_table(bench, cycle, j):
                    report(f"{name} request {j}: perturbed {table} counted as failure", failed == 1)
                cycle.done()
            cycle = bench.new_cycle()
            broken = cycle.argv(0, 1)
            broken[broken.index("--relevance") + 1] = str(work / "missing.csv")
            tally = client.Tally()
            code = client.in_process(bench.cli_main, broken)
            cycle.verify(0, code, tally)
            cold_code = client.cold([broken], bench.env, root)["requests"][0]["code"]
            cycle.verify(0, cold_code, tally)
            report(f"{name}: exits {code} (in-process) and {cold_code} (cold) counted as failures",
                   tally.failed == 2 and code != 0 and cold_code != 0)
            cycle.done()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1
