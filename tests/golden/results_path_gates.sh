#!/usr/bin/env bash
# Results-path gates: the campaign result path (per-replication CSV rows,
# exact and online aggregates, WLSR bytes and their export) must not move a
# byte with the worker count, and a failed aggregate write must fail the
# run. Each determinism gate runs one command at --jobs=1 and at --jobs=0
# (every hardware thread) and compares the files with cmp; the row-count
# and label checks pin the shape. The first failing command fails the test
# and names its gate.
#
# Usage: results_path_gates.sh <wlansim_run> <wlansim_results> <scratch dir>

set -euo pipefail

RUN=$(realpath "$1")
RESULTS=$(realpath "$2")
OUT=$3

rm -rf "$OUT"
mkdir -p "$OUT"
cd "$OUT"

gate=""
trap 'echo "results-path gate failed: $gate" >&2' ERR
begin() {
  gate=$1
  echo "== $gate"
}

begin "Streaming-scale gate: 10^4-replication --stream campaign"
# The streamed per-replication CSV and the online (Welford + P-square)
# aggregate CSV must be byte-identical for --jobs=1 vs --jobs=0 (the reorder
# buffer, not scheduling luck, is what puts rows in order), and the row
# count must equal the replication count exactly.
run="--scenario=pipeline_probe --reps=10000 --stream --seed=3 --quiet"
"$RUN" $run --jobs=1 --reps-csv=stream-rows-j1.csv --csv=stream-agg-j1.csv
"$RUN" $run --jobs=0 --reps-csv=stream-rows-j0.csv --csv=stream-agg-j0.csv
cmp stream-rows-j1.csv stream-rows-j0.csv
cmp stream-agg-j1.csv stream-agg-j0.csv
test "$(wc -l < stream-rows-j1.csv)" -eq 10001
head -1 stream-agg-j1.csv | grep -q 'p50_approx,p95_approx$'

begin "Determinism gate: exact-mode streamed --reps-csv and --json, --jobs=1 vs --jobs=0"
# Exact-mode per-replication rows stream through the same pipeline writer
# as --stream rows: identical for any worker count, and the exact
# aggregates' JSON with them.
run="--scenario=pipeline_probe --reps=500 --no-stream --seed=3 --quiet"
"$RUN" $run --jobs=1 --reps-csv=exact-rows-j1.csv --json=exact-agg-j1.json
"$RUN" $run --jobs=0 --reps-csv=exact-rows-j0.csv --json=exact-agg-j0.json
cmp exact-rows-j1.csv exact-rows-j0.csv
cmp exact-agg-j1.json exact-agg-j0.json
test "$(wc -l < exact-rows-j1.csv)" -eq 501
grep -q '"p50": ' exact-agg-j1.json

begin "Determinism gate: WLSR binary output, --jobs=1 vs --jobs=0"
# The binary file's bytes must be a pure function of the record stream:
# identical for any worker count, in campaign and sweep mode alike, and
# `export` must reproduce the run's own CSV byte-for-byte.
run="--scenario=pipeline_probe --reps=500 --stream --seed=3 --quiet --param counters=4 --param hist=true"
"$RUN" $run --jobs=1 --binary-out=bin-j1.wlsr --reps-csv=bin-rows-j1.csv
"$RUN" $run --jobs=0 --binary-out=bin-j0.wlsr
cmp bin-j1.wlsr bin-j0.wlsr
"$RESULTS" export bin-j0.wlsr --out=bin-export.csv
cmp bin-export.csv bin-rows-j1.csv
sweep="--scenario=rate_vs_distance --sweep distance=10:100:10 --reps=8 --seed=7 --quiet"
"$RUN" $sweep --jobs=1 --binary-out=sweep-j1.wlsr
"$RUN" $sweep --jobs=0 --binary-out=sweep-j0.wlsr --csv=sweep-j0.csv
cmp sweep-j1.wlsr sweep-j0.wlsr
"$RESULTS" export sweep-j0.wlsr --out=sweep-export.csv
cmp sweep-export.csv sweep-j0.csv

begin "Write failures: campaign --csv and --json to a full device exit non-zero"
# A full disk shows only when the stream is flushed; the run must say so
# and fail instead of leaving an empty aggregate file behind.
for flag in --csv --json; do
  if "$RUN" --scenario=pipeline_probe --reps=3 --quiet "$flag=/dev/full" 2> full.err; then
    echo "$flag=/dev/full exited 0" >&2
    false
  fi
  grep -q 'write to /dev/full failed' full.err
done

echo "results-path gates: all passed"
