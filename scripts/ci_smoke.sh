#!/usr/bin/env bash
# Smoke checks of the installed `relcentral` command, run from the root of
# the repository. Each argument names one check, run in the order given:
#
#   florence  compute every metric on the Florence families
#   version   the Florence result carries the installed package's version
#             (after `florence`)
#   workers   a graph of many source blocks gives the same JSON and CSV
#             bytes at --workers 1, 2 and 3
#   quoted    about 100000 rows, many chunks: a quoted label in the last
#             row sends only the last chunk through csv.reader, the result
#             bytes do not change, and they are the json module's
#   intlabels the same rows with integer labels: every chunk is read as
#             integers from its bytes, a quoted source in the last row
#             hands only the last chunk to csv.reader, and the result bytes
#             do not change
#   experiment  a tiny correlation grid gives 8 rows and the same CSV
#             bytes at --workers 1 and 2, and a grid with an integer too
#             large for a float exits 2 with an error line, no traceback
#   grid      the default grid at --workers 1 gives the rows of
#             tests/data/grid-default.csv (about 100 s; needs the test extra)
#
# Usage: scripts/ci_smoke.sh florence version workers quoted intlabels experiment grid
set -euo pipefail

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

for check in "$@"; do
  echo "== $check"
  case "$check" in
    florence)
      relcentral compute data/florence/edges.csv --relevance data/florence/relevance.csv \
        --metric all --out "$tmp/florence.json"
      ;;
    version)
      python - "$tmp/florence.json" <<'EOF'
import json, sys
from importlib import metadata
import relcentral
doc = json.load(open(sys.argv[1]))
assert metadata.version("relcentral") == relcentral.__version__
assert doc["metadata"]["version"] == relcentral.__version__
EOF
      ;;
    workers)
      relcentral generate --kind ws --n 600 --d 10 --p 1 --r 0.5 --out-prefix "$tmp/ws"
      for fmt in json csv; do
        for k in 1 2 3; do
          relcentral compute "$tmp/ws.edges.csv" --relevance "$tmp/ws.relevance.csv" \
            --metric all --f path-prod --workers "$k" --format "$fmt" --out "$tmp/ws_$k.$fmt"
        done
        cmp "$tmp/ws_1.$fmt" "$tmp/ws_2.$fmt"
        cmp "$tmp/ws_1.$fmt" "$tmp/ws_3.$fmt"
      done
      ;;
    quoted)
      relcentral generate --kind ws --n 20000 --d 10 --p 1 --out-prefix "$tmp/big"
      mkdir "$tmp/quoted"
      cp "$tmp/big.edges.csv" "$tmp/quoted/big.edges.csv"
      sed -i '$ s/^\([^,]*\),/"\1",/' "$tmp/quoted/big.edges.csv"
      for d in "$tmp" "$tmp/quoted"; do
        relcentral compute "$d/big.edges.csv" --metric degree --out "$d/degree.json"
      done
      cmp "$tmp/degree.json" "$tmp/quoted/degree.json"
      # the result is written to the file in pieces: its bytes are the json module's
      python - "$tmp/degree.json" <<'EOF'
import json, sys
b = open(sys.argv[1], "rb").read()
assert b == (json.dumps(json.loads(b), sort_keys=True, indent=2) + "\n").encode()
EOF
      ;;
    intlabels)
      relcentral generate --kind ws --n 20000 --d 10 --p 1 --out-prefix "$tmp/int"
      sed -i '2,$ s/v//g' "$tmp/int.edges.csv"  # labels 0 to 19999
      mkdir "$tmp/intq"
      cp "$tmp/int.edges.csv" "$tmp/intq/int.edges.csv"
      sed -i '$ s/^\([^,]*\),/"\1",/' "$tmp/intq/int.edges.csv"
      for d in "$tmp" "$tmp/intq"; do
        relcentral compute "$d/int.edges.csv" --metric degree --out "$d/degree.json"
      done
      cmp "$tmp/degree.json" "$tmp/intq/degree.json"
      python - "$tmp/int.edges.csv" "$tmp/intq/int.edges.csv" <<'EOF'
import csv, sys
import numpy as np
from relcentral import io_formats

def chunks(path):
    """(integer labels?, rows) of each chunk the edge reader yields, and
    whether csv.reader was started."""
    calls, reader = [], csv.reader
    io_formats.csv.reader = lambda *args: calls.append(1) or reader(*args)
    try:
        out = [(isinstance(s, np.ndarray), len(s)) for s, _, _ in io_formats.load_edge_chunks(path)]
    finally:
        io_formats.csv.reader = reader
    return out, bool(calls)

plain, plain_csv = chunks(sys.argv[1])
quoted, quoted_csv = chunks(sys.argv[2])
assert len(plain) > 10 and all(ints for ints, _ in plain) and not plain_csv
assert sum(rows for _, rows in plain) == sum(rows for _, rows in quoted) == 100000
# the last chunk of text leaves the integer path for csv.reader, no other does
k = len(plain) - 1
assert quoted[:k] == plain[:k] and quoted_csv
assert not any(ints for ints, _ in quoted[k:])
EOF
      ;;
    experiment)
      # a tiny grid: spearman ranks with numpy
      echo '{"kinds": ["regular", "random"], "sizes": [30], "r": [0.5], "f": ["product", "path-sum"], "metrics": ["betweenness", "harmonic"], "seeds": [0], "d": 4}' > "$tmp/grid.json"
      for k in 1 2; do
        relcentral experiment --grid "$tmp/grid.json" --workers "$k" --out "$tmp/corr_$k.csv"
      done
      cmp "$tmp/corr_1.csv" "$tmp/corr_2.csv"
      test "$(wc -l < "$tmp/corr_1.csv")" -eq 9
      printf '{"r": [1%0400d]}\n' 0 > "$tmp/huge.json"  # 1 and 400 zeros
      code=0
      relcentral experiment --grid "$tmp/huge.json" --out "$tmp/huge.csv" 2> "$tmp/huge.err" || code=$?
      cat "$tmp/huge.err"
      test "$code" -eq 2
      grep -q '^error: ' "$tmp/huge.err"
      if grep -q Traceback "$tmp/huge.err"; then exit 1; fi
      ;;
    grid)
      # one progress line per cell goes to the log, shown only on failure
      relcentral experiment --workers 1 --out "$tmp/grid.csv" 2> "$tmp/grid.log" \
        || { tail "$tmp/grid.log"; exit 1; }
      PYTHONPATH="tests${PYTHONPATH:+:$PYTHONPATH}" python - "$tmp/grid.csv" <<'EOF'
import sys
from test_golden import DATA, assert_grid_matches
assert_grid_matches(sys.argv[1], DATA / "grid-default.csv", 480)
EOF
      ;;
    *)
      echo "unknown check: $check" >&2
      exit 2
      ;;
  esac
done
