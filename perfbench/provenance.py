"""Where and on what a run was measured."""

from __future__ import annotations

import os
import platform
import sys
import time
from pathlib import Path


def _read(path) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def caches() -> dict:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        level, kind = _read(idx / "level"), _read(idx / "type")
        if level in ("2", "3"):
            out[f"L{level}"] = _read(idx / "size")
        elif level == "1":
            out[f"L1{kind[0].lower()}"] = _read(idx / "size")
    return out


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    head = _read(git / "HEAD")
    if not head:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    sha = _read(git / ref)
    if sha:
        return sha
    for line in _read(git / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return f"unknown ({ref})"


def speed_probe_ms() -> float:
    """Fastest of five runs of a fixed pure-Python loop. Other tenants of
    the host slow it down even when this machine's own CPUs look idle."""
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i
        best = min(best, time.perf_counter() - t0)
    return 1000 * best


class Contention:
    """Whether other work competed for the CPU while this process ran.

    Uses the 1-minute load average, the time the main thread waited on a
    run queue (/proc/self/schedstat) and a speed probe at both ends of
    the run, all taken from inside the benchmark's own process.
    """

    def __init__(self):
        self.load_start = os.getloadavg()
        self.steal_start = self._steal()
        self.probe_start = speed_probe_ms()
        self.wait_start, self.wall_start = self._runqueue_wait(), time.monotonic()

    @staticmethod
    def _steal() -> list[float]:
        """Per-CPU time the hypervisor ran something else, in seconds."""
        hz = os.sysconf("SC_CLK_TCK")
        return [int(line.split()[8]) / hz for line in _read("/proc/stat").splitlines()
                if line.startswith("cpu") and line[3:4].isdigit()]

    @staticmethod
    def _runqueue_wait() -> float:
        fields = _read("/proc/self/schedstat").split()
        return int(fields[1]) / 1e9 if len(fields) > 1 else float("nan")

    def report(self) -> dict:
        wall = time.monotonic() - self.wall_start
        waited = self._runqueue_wait() - self.wait_start
        share = waited / wall if wall > 0 else float("nan")
        load_end = os.getloadavg()
        return {
            "loadavg_start": self.load_start,
            "loadavg_end": load_end,
            "runqueue_wait_s": waited,
            "runqueue_wait_share": share,
            "speed_probe_ms": [self.probe_start, speed_probe_ms()],
            "steal_s_per_cpu": [b - a for a, b in zip(self.steal_start, self._steal())],
            # the main thread sleeps while worker threads or child processes
            # run, so time it spent waiting for a CPU was taken by other work
            "shared": bool(share > 0.05),
        }


def collect(root: Path) -> dict:
    import numpy
    import scipy
    return {
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "caches": caches(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(root),
    }
