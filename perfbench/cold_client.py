"""Runs requests as fresh relcentral CLI processes, one at a time.

    python3 cold_client.py '<JSON list of argument lists>'

Each request process imports ``relcentral``, timing the import itself,
and then runs ``relcentral.cli`` as ``__main__`` exactly as
``python -m relcentral.cli`` does. Prints one JSON object: per request
the exit code, wall time and import time, and the largest peak RSS among
the request processes. Requests are started from this small process
rather than from the benchmark, because a child started with vfork/exec
inherits its parent's peak RSS in ``ru_maxrss``.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
import time

REQUEST_TIMEOUT_S = 150
IMPORT_MARK = "relcentral-import-seconds "
CHILD = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "import relcentral\n"
    f"print({IMPORT_MARK!r} + repr(time.perf_counter() - t), file=sys.stderr, flush=True)\n"
    "import runpy\n"
    "runpy.run_module('relcentral.cli', run_name='__main__', alter_sys=True)\n"
)


def _import_seconds(stderr: str) -> float | None:
    for line in stderr.splitlines():
        if line.startswith(IMPORT_MARK):
            return float(line[len(IMPORT_MARK):])
    return None


def main() -> None:
    results = []
    for argv in json.loads(sys.argv[1]):
        t0 = time.perf_counter()
        try:
            done = subprocess.run([sys.executable, "-c", CHILD, *argv], stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=REQUEST_TIMEOUT_S)
            code, imported = done.returncode, _import_seconds(done.stderr)
        except subprocess.TimeoutExpired:
            code, imported = -1, None
        results.append({"code": code, "seconds": time.perf_counter() - t0, "import_seconds": imported})
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(json.dumps({"requests": results, "peak_rss_mb": peak_kb / 1024}))


if __name__ == "__main__":
    main()
