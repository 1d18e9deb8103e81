#!/usr/bin/env bash
# Produces the canonical scenario output set whose SHA-256 digests the
# golden-digest ctest (tests/golden/check_digests.sh) compares with
# tests/golden/digests.txt: for every scenario named on the command line
# (or every registered scenario when none is named), one short campaign
# (aggregate CSV + per-replication CSV) and one two-point sweep CSV, with
# fixed seeds and shortened simulated time so the whole matrix runs in
# about a second. pipeline_probe also gets one large campaign and one large
# sweep (thousands of replications per aggregate, about 30 ms together) so
# the exact-quantile fold is pinned at real sample sizes, not only at n = 2,
# plus a --stream campaign (aggregate and per-replication CSV) and a
# --stream sweep, which pin the online aggregation and the streamed writers.
# saturation's campaign also writes its aggregates as JSON.
#
# Usage: scenario_outputs.sh <wlansim_run binary> <output dir> [scenario...]
#
# The per-scenario extra parameters only shorten runtimes — they are normal
# scenario parameters, so they appear in the sweep CSVs identically for any
# binary and never mask a behavioural difference.

set -euo pipefail

BIN=$1
OUT=$2
shift 2
mkdir -p "$OUT"

if [ $# -gt 0 ]; then
  scenarios="$*"
else
  scenarios=$("$BIN" --list | awk '{print $2}' | grep -E '^[a-z0-9_]+$' | grep -vx scenario)
fi

# short_params <scenario>  -> --param flags that shrink simulated time
short_params() {
  case "$1" in
    roaming) echo "--param sim_time_s=6" ;;
    pipeline_probe) echo "" ;;
    dense_multi_bss) echo "--param sim_time_s=1 --param n_bss=2" ;;
    city_grid) echo "--param sim_time_s=1 --param n_bss=4" ;;
    *) echo "--param sim_time_s=1" ;;
  esac
}

# sweep_axis <scenario> -> the two-point sweep axis
sweep_axis() {
  case "$1" in
    saturation) echo "n_stas=1,2" ;;
    hidden_terminal) echo "rtscts=false,true" ;;
    edca) echo "qos=false,true" ;;
    dense_multi_bss) echo "stas_per_bss=1,2" ;;
    city_grid) echo "stas_per_bss=1,2" ;;
    rate_vs_distance) echo "distance=30,60" ;;
    ism_interference) echo "oven_distance=0,3" ;;
    adhoc_vs_infra) echo "adhoc=true,false" ;;
    coexistence) echo "protection=false,true" ;;
    fragmentation) echo "frag_threshold=512,2346" ;;
    roaming) echo "speed=10,20" ;;
    pipeline_probe) echo "n_metrics=1,2" ;;
    sensor_coexistence) echo "n_sensors=2,4" ;;
    lora_coexistence) echo "duty_pct=1,10" ;;
    *) echo "" ;;
  esac
}

for s in $scenarios; do
  extra=$(short_params "$s")
  json=""
  if [ "$s" = saturation ]; then
    json="--json=$OUT/$s-campaign.json"
  fi
  # shellcheck disable=SC2086
  "$BIN" --scenario="$s" $extra --reps=2 --seed=5 --quiet \
    --csv="$OUT/$s-campaign.csv" --reps-csv="$OUT/$s-reps.csv" $json
  axis=$(sweep_axis "$s")
  if [ -n "$axis" ]; then
    # shellcheck disable=SC2086
    "$BIN" --scenario="$s" $extra --sweep "$axis" --reps=2 --seed=5 --jobs=0 \
      --quiet --csv="$OUT/$s-sweep.csv"
  fi
  if [ "$s" = pipeline_probe ]; then
    "$BIN" --scenario="$s" --reps=5000 --no-stream --seed=5 --quiet \
      --csv="$OUT/$s-large-campaign.csv"
    "$BIN" --scenario="$s" --sweep n_metrics=1,2 --reps=1000 --seed=5 --jobs=0 --quiet \
      --csv="$OUT/$s-large-sweep.csv"
    "$BIN" --scenario="$s" --reps=2000 --stream --seed=5 --quiet \
      --csv="$OUT/$s-stream-campaign.csv" --reps-csv="$OUT/$s-stream-reps.csv"
    "$BIN" --scenario="$s" --sweep n_metrics=1,2 --reps=500 --stream --seed=5 --jobs=0 \
      --quiet --csv="$OUT/$s-stream-sweep.csv"
  fi
done

echo "scenario_outputs: wrote $(ls "$OUT" | wc -l) files to $OUT"
