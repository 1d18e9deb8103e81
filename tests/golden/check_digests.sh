#!/usr/bin/env bash
# Golden-digest check: regenerates every scenario's campaign, per-replication
# and sweep CSV with tools/scenario_outputs.sh and compares their SHA-256
# digests with the committed manifest, tests/golden/digests.txt. Any
# difference — a changed byte, a missing or an extra CSV — fails the check
# and prints the differing manifest lines.
#
# Usage: check_digests.sh <wlansim_run binary> <scratch dir>
#
# A digest may change only with an explanation in CHANGES.md. To regenerate
# the manifest after an intended output change (from the repository root):
#   tools/scenario_outputs.sh build/src/wlansim_run /tmp/golden < /dev/null
#   (cd /tmp/golden && sha256sum *.csv) > tests/golden/digests.txt

set -euo pipefail

BIN=$1
OUT=$2
HERE=$(cd "$(dirname "$0")" && pwd)

rm -rf "$OUT"
bash "$HERE/../../tools/scenario_outputs.sh" "$BIN" "$OUT" < /dev/null
actual=$(cd "$OUT" && sha256sum *.csv)
if ! diff <(cat "$HERE/digests.txt") <(echo "$actual"); then
  echo "golden digests differ ('<' manifest, '>' this build)" >&2
  exit 1
fi
echo "golden digests: all $(wc -l < "$HERE/digests.txt") CSVs match"
