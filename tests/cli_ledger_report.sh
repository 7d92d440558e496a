#!/bin/sh
# Run ledger + report, end to end: two identical ledgered `sddd_cli
# diagnose` runs share one experiment fingerprint, so `sddd_cli report
# --last 2` must verify their result hashes match ("rank stability:
# identical") in both the text and the JSON rendering, with non-empty
# phase and counter tables.
#
#   tests/cli_ledger_report.sh <sddd_cli> <scratch dir>
set -eu
cli=$1
dir=$2
rm -rf "$dir"
mkdir -p "$dir"
"$cli" synth "$dir/s1196.bench" --profile s1196 --scale 0.15 --seed 7 \
  > /dev/null
for run in a b; do
  "$cli" diagnose "$dir/s1196.bench" --chips 6 --samples 80 --threads 2 \
    --ledger "$dir/ledger.jsonl" --json "$dir/led_$run.json" > /dev/null
done
"$cli" report --ledger "$dir/ledger.jsonl" --last 2 \
  | grep -q "rank stability: identical"
"$cli" report --ledger "$dir/ledger.jsonl" --last 2 \
  --json "$dir/diff.json" > /dev/null
grep -q '^  "rank_stability": "identical"$' "$dir/diff.json"
run_a=$(sed -n 's/^  "run_a": "\([0-9a-f]*\)",$/\1/p' "$dir/diff.json")
run_b=$(sed -n 's/^  "run_b": "\([0-9a-f]*\)",$/\1/p' "$dir/diff.json")
[ -n "$run_a" ] && [ "$run_a" = "$run_b" ]
! grep -q '"phases": {}' "$dir/diff.json"
! grep -q '"counters": {}' "$dir/diff.json"
echo "cli ledger/report ok: runs $run_a vs $run_b rank-identical"
