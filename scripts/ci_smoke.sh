#!/usr/bin/env bash
# Smoke checks of the installed `relcentral` command, run from the root of
# the repository. Each argument names one check, run in the order given:
#
#   florence  compute every metric on the Florence families
#   version   the Florence result carries the installed package's version
#             (after `florence`)
#   workers   a graph of many source blocks, unweighted and weighted, gives
#             the same JSON, CSV and DOT bytes at --workers 1, 2 and 3
#   quoted    about 100000 rows, many chunks: a quoted label in the last
#             row sends only the last chunk through csv.reader, the result
#             bytes do not change, and they are the json module's
#   intlabels the same rows with integer labels, and a relevance file with
#             integer vertices: every chunk of both is read as integers from
#             its bytes, a quoted cell in the last row of either hands only
#             its last chunk to csv.reader, and the result bytes do not change
#   experiment  a tiny correlation grid gives 8 rows and the same CSV
#             bytes at --workers 1 and 2, and a grid with an integer too
#             large for a float exits 2 with an error line, no traceback
#   deep      a chain of 1030 diamonds, unit weights (2^1030 shortest paths
#             end to end): --metric all and path-prod betweenness exit 0,
#             their path counts scaled by powers of two, and path-prod
#             betweenness with relevance 4 on every vertex (path products up
#             to 4^2061) exits 3 with one error line that names float64, no
#             traceback (about 20 s on 2 vCPUs)
#   grid      the default grid at --workers 1 gives the rows of
#             tests/data/grid-default.csv (about 100 s; needs the test extra)
#
# Usage: scripts/ci_smoke.sh florence version workers quoted intlabels experiment deep grid
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
      # the same edges weighted 0.5 to 2 by line number, for the distance front-end
      awk -F, 'NR == 1 { print; next } { print $1 "," $2 "," 0.5 + NR % 7 / 4 }' \
        "$tmp/ws.edges.csv" > "$tmp/wsw.edges.csv"
      python - "$tmp/ws.edges.csv" "$tmp/wsw.edges.csv" <<'EOF'
import sys
from relcentral import _batched, io_formats
from relcentral.graph import build_graph_chunks
for path, weighted in zip(sys.argv[1:], (False, True)):
    g = build_graph_chunks(io_formats.load_edge_chunks(path))
    assert g.weighted == weighted and _batched.block_size(g) < g.vertex_count, path
EOF
      for name in ws wsw; do
        for fmt in json csv dot; do
          for k in 1 2 3; do
            relcentral compute "$tmp/$name.edges.csv" --relevance "$tmp/ws.relevance.csv" \
              --metric all --f path-prod --workers "$k" --format "$fmt" --out "$tmp/${name}_$k.$fmt"
          done
          cmp "$tmp/${name}_1.$fmt" "$tmp/${name}_2.$fmt"
          cmp "$tmp/${name}_1.$fmt" "$tmp/${name}_3.$fmt"
        done
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
      relcentral generate --kind ws --n 20000 --d 10 --p 1 --r 0.5 --out-prefix "$tmp/int"
      sed -i '2,$ s/v//g' "$tmp/int.edges.csv" "$tmp/int.relevance.csv"  # labels 0 to 19999
      # intq: the last edge row's source quoted; intr: the last relevance row's vertex
      mkdir "$tmp/intq" "$tmp/intr"
      cp "$tmp/int.edges.csv" "$tmp/int.relevance.csv" "$tmp/intq/"
      cp "$tmp/int.edges.csv" "$tmp/int.relevance.csv" "$tmp/intr/"
      sed -i '$ s/^\([^,]*\),/"\1",/' "$tmp/intq/int.edges.csv"
      sed -i '$ s/^\([^,]*\),/"\1",/' "$tmp/intr/int.relevance.csv"
      for d in "$tmp" "$tmp/intq" "$tmp/intr"; do
        relcentral compute "$d/int.edges.csv" --relevance "$d/int.relevance.csv" \
          --metric degree --out "$d/degree.json"
      done
      cmp "$tmp/degree.json" "$tmp/intq/degree.json"
      cmp "$tmp/degree.json" "$tmp/intr/degree.json"
      python - "$tmp" "$tmp/intq" "$tmp/intr" <<'EOF'
import csv, sys
import numpy as np
from relcentral import io_formats
from relcentral.graph import build_graph_chunks

def chunks(read):
    """(integer labels?, rows) of each chunk that read() yields as
    (labels, ...), and whether csv.reader was started."""
    calls, reader = [], csv.reader
    io_formats.csv.reader = lambda *args: calls.append(1) or reader(*args)
    try:
        out = [(isinstance(labels, np.ndarray), len(labels)) for labels, *_ in read()]
    finally:
        io_formats.csv.reader = reader
    return out, bool(calls)

def edges(d):
    return chunks(lambda: io_formats.load_edge_chunks(f"{d}/int.edges.csv"))

def relevance(d):
    """The chunks load_relevance_csv reads for the graph of d's edges."""
    g = build_graph_chunks(io_formats.load_edge_chunks(f"{d}/int.edges.csv"))
    real = io_formats._read_chunks

    def read():
        seen = []
        io_formats._read_chunks = lambda *args: (seen.append(c[0]) or c for c in real(*args))
        try:
            io_formats.load_relevance_csv(f"{d}/int.relevance.csv", g)
        finally:
            io_formats._read_chunks = real
        return seen
    return chunks(read)

plain_dir, edge_dir, rel_dir = sys.argv[1:]
for read, quoted_dir, rows, min_chunks in ((edges, edge_dir, 100000, 10),
                                           (relevance, rel_dir, 20000, 2)):
    plain, plain_csv = read(plain_dir)
    quoted, quoted_csv = read(quoted_dir)
    assert len(plain) > min_chunks and all(ints for ints, _ in plain) and not plain_csv
    assert sum(n for _, n in plain) == sum(n for _, n in quoted) == rows
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
    deep)
      awk 'BEGIN { print "source,target"; for (i = 0; i < 1030; i++)
        printf "m%d,u%d\nm%d,l%d\nu%d,m%d\nl%d,m%d\n", i, i, i, i, i, i + 1, i, i + 1 }' \
        > "$tmp/deep.edges.csv"
      awk 'BEGIN { print "vertex,relevance"; for (i = 0; i <= 1030; i++) print "m" i ",4";
        for (i = 0; i < 1030; i++) print "u" i ",4\nl" i ",4" }' > "$tmp/deep.relevance.csv"
      relcentral compute "$tmp/deep.edges.csv" --metric all --out "$tmp/deep.json"
      relcentral compute "$tmp/deep.edges.csv" --f path-prod --metric betweenness \
        --out "$tmp/deep-path.json"
      code=0
      relcentral compute "$tmp/deep.edges.csv" --relevance "$tmp/deep.relevance.csv" \
        --f path-prod --metric betweenness --out "$tmp/deep-r4.json" 2> "$tmp/deep.err" || code=$?
      cat "$tmp/deep.err"
      test "$code" -eq 3
      test "$(wc -l < "$tmp/deep.err")" -eq 1
      grep -q '^error: .*float64' "$tmp/deep.err"
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
