"""relcentral benchmark: one workload per run, inputs made from a seed.

    python3 perfbench/run.py --workload ws-lowdiam --seed 1 --seconds 24 --trace 0

Run from any directory; the program is imported from ``src/`` next to
this directory. A run makes its inputs, measures request cycles for
``--seconds`` seconds, checks every request's output against an
independent reference, prints a report and, as its last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics (untraced); ``--trace 1``
reports the per-layer split from a traced replay and writes the spans
to ``.perfbench/``. ``--self-test`` shows at tiny sizes that the checks
catch a corrupted value and a failed exit; ``--networkx`` times
networkx beside relcentral on the classic metrics (informational).
See README.md here for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

import client
import provenance
from inputs import WORKLOADS
from replay import LAYER_METRICS, TracedRun

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# Reported by a --trace 0 run: (name, unit, in the JSON result). Every timing
# is the mean over the run's cycles: the host's speed phases come and go within
# a run, and over ten seeds the mean spread less than the median or the
# fastest cycle did (see README). compute_s.par is printed but not a
# JSON metric: whether the host gives both vCPUs at once flips between
# minutes-long states, so its spread over ten runs reached 0.5, beyond any
# bound the benchmark may set; the traced run reports it per layer instead.
E2E_METRICS = [
    ("setup_s", "s", True),
    ("compute_s", "s", True),
    ("compute_s.par", "s", False),
    ("cold_compute_s", "s", True),
    ("peak_rss_mb", "MB", True),
]
WARM_PER_ROUND = 2  # in-process cycles per worker count per round; they are cheaper than cold ones


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return (xs[0],) * 3 if xs else (0.0,) * 3
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def measure(seconds: float, steps) -> int:
    """Run rounds of ``steps`` until the window of ``seconds`` is closer to
    the end of the last round than to the end of another one; at least
    one round. Returns the number of rounds."""
    t0 = time.perf_counter()
    rounds = 0
    while True:
        r0 = time.perf_counter()
        for step in steps:
            step()
        rounds += 1
        now = time.perf_counter()
        if (now - t0) + (now - r0) / 2 > seconds:
            return rounds


def run_untraced(bench, seconds: int, nproc: int) -> tuple[dict, dict]:
    """(metric values, samples per metric: cycle wall times, import times, peak RSS)."""
    samples = {name: [] for name, _, _ in E2E_METRICS}

    def cold():
        out = bench.cold_cycle()
        samples["cold_compute_s"].append(sum(req["seconds"] for req in out["requests"]))
        samples["setup_s"] += [req["import_seconds"] for req in out["requests"]
                               if req["import_seconds"] is not None]
        samples["peak_rss_mb"].append(out["peak_rss_mb"])

    # lazy imports, thread arenas and allocator growth happen once per process
    bench.warm_cycle(1)
    bench.warm_cycle(nproc)
    rounds = measure(seconds, [lambda: samples["compute_s"].append(sum(bench.warm_cycle(1))),
                               lambda: samples["compute_s.par"].append(sum(bench.warm_cycle(nproc)))]
                     * WARM_PER_ROUND + [cold])
    values = {name: statistics.fmean(xs) for name, xs in samples.items()}
    values["peak_rss_mb"] = max(samples["peak_rss_mb"])
    return values, samples, rounds


def run_traced(bench, seconds: int, nproc: int):
    tr = TracedRun(bench)
    compute, par = [], []

    def traced_cycle():
        cycle = bench.new_cycle()
        tr.cycle(cycle, bench.tally)
        cycle.done()

    bench.warm_cycle(1)
    bench.warm_cycle(nproc)
    rounds = measure(seconds, [lambda: compute.append(sum(bench.warm_cycle(1))),
                               lambda: par.append(sum(bench.warm_cycle(nproc))), traced_cycle])
    return tr, compute, par, rounds


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=24)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="show at tiny sizes that corrupted outputs and failed exits are counted")
    ap.add_argument("--networkx", action="store_true",
                    help="time networkx beside relcentral on classic metrics (informational)")
    args = ap.parse_args(argv)
    if not (args.self_test or args.networkx or args.workload):
        ap.error("--workload is required")
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "relcentral" / "cli.py").is_file():
        print(f"error: relcentral sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.self_test:
        import selftest
        return selftest.main(ROOT, SRC)
    if args.networkx:
        import nxref
        return nxref.main(args.workload, args.seed, ROOT)

    wl = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}-{time.time_ns()}"
    work.mkdir()
    contention = provenance.Contention()
    try:
        import relcentral.cli

        bench = client.Bench(wl, args.seed, work, ROOT, SRC, relcentral.cli.main)
        if args.trace:
            tr, compute, par, rounds = run_traced(bench, args.seconds, provenance.nproc())
            metrics, notes = tr.metrics(compute, par, len(bench.gi.u))
            units = {name: unit for name, unit, _ in LAYER_METRICS}
            extra = {"rounds": rounds, "traced_cycles": len(tr.walls), "untraced_cycles": len(compute),
                     "absent_layers": tr.absent, "self_time_check": tr.self_time_check(compute)}
            rows = [(name, units[name], metrics[name], notes.get(name, "")) for name in units]
        else:
            metrics, samples, rounds = run_untraced(bench, args.seconds, provenance.nproc())
            units = {name: unit for name, unit, in_json in E2E_METRICS if in_json}
            extra = {"rounds": rounds, "samples": samples}
            rows = [(name, unit, metrics[name], samples[name], in_json)
                    for name, unit, in_json in E2E_METRICS]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    tally = bench.tally
    info = {
        "workload": wl.name, "why": wl.why, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "sizes": {"n": wl.n, "m": len(bench.gi.u), "d": wl.d, "r": wl.r, "weighted": wl.weighted,
                  "requests": [list(r) for r in wl.requests]},
        "machine": provenance.collect(ROOT), "contention": contention.report(), **extra,
        "attempted": tally.attempted, "failed": tally.failed,
        "error_rate": tally.failed / max(tally.attempted, 1), "failures": tally.reasons,
    }
    if args.trace:
        tr.tracer.write(OUT / f"spans-{wl.name}-seed{args.seed}.json", info)
        info["spans_file"] = str(OUT / f"spans-{wl.name}-seed{args.seed}.json")
    print_report(info, rows, args.trace)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    info["result"] = result
    with open(OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(info, fh, indent=1, default=str)
    print(json.dumps(result))
    return 0


def print_report(info: dict, rows, traced: int) -> None:
    s = info["sizes"]
    print(f"workload {info['workload']}  seed {info['seed']}  n={s['n']} m={s['m']} d={s['d']} "
          f"r={s['r']} weighted={s['weighted']}  cycle={s['requests']}")
    print(f"why: {info['why']}")
    for key in ("machine", "contention"):
        print(f"{key}: {json.dumps(info[key], default=str)}")
    print(f"rounds {info['rounds']}  requests attempted {info['attempted']}  failed {info['failed']}  "
          f"error_rate {info['error_rate']:.6g} (ratio)")
    for reason in info["failures"]:
        print(f"  failure: {reason}")
    if traced:
        print(f"per-layer split ({info['traced_cycles']} traced cycles, "
              f"{info['untraced_cycles']} untraced; per cycle, median):")
        for name, unit, value, note in rows:
            print(f"  {name:<30} {value:>14.6g} {unit:<6} {note}")
        print(f"  {info['self_time_check']}")
        for name, reason in info["absent_layers"].items():
            print(f"  absent layer {name}: {reason}")
        print(f"spans written to {info['spans_file']}")
    else:
        print("value: mean over the run's samples (peak_rss_mb: the largest)")
        print(f"{'metric':<16} {'unit':<5} {'value':>10} {'median':>10} {'q1':>10} {'q3':>10} {'n':>3}")
        for name, unit, value, xs, in_json in rows:
            q1, med, q3 = quartiles(xs)
            note = "" if in_json else "  (printed only, see README)"
            print(f"{name:<16} {unit:<5} {value:>10.4f} {med:>10.4f} {q1:>10.4f} {q3:>10.4f} "
                  f"{len(xs):>3}{note}")


if __name__ == "__main__":
    sys.exit(main())
