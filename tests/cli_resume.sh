#!/bin/sh
# Crash/resume byte identity of `sddd_cli diagnose --checkpoint`, end to
# end: a journaled run SIGKILLed mid-trials and then resumed must write the
# same result JSON as an uninterrupted run, at 1 and at 2 threads; so must
# a resume from a journal whose last line is torn.  The kill waits for a
# few journaled trials, so it lands mid-trials unless the host finishes the
# remaining trials first; then the resume is a pure journal replay, which
# is still a byte-identity check.
#
#   tests/cli_resume.sh <sddd_cli> <scratch dir>
set -eu
cli=$1
dir=$2
rm -rf "$dir"
mkdir -p "$dir"
"$cli" synth "$dir/s1196.bench" --profile s1196 --scale 0.15 --seed 7 \
  > /dev/null
set -- "$dir/s1196.bench" --chips 48 --samples 80
journal_lines() { if [ -f "$1" ]; then wc -l < "$1"; else echo 0; fi; }

"$cli" diagnose "$@" --threads 1 --json "$dir/ref_t1.json" > /dev/null
"$cli" diagnose "$@" --threads 2 --json "$dir/ref_t2.json" > /dev/null
cmp "$dir/ref_t1.json" "$dir/ref_t2.json"

"$cli" diagnose "$@" --threads 2 --checkpoint "$dir/run.ckpt" \
  > /dev/null 2>&1 &
victim=$!
tries=0
while [ "$(journal_lines "$dir/run.ckpt")" -lt 4 ] && [ "$tries" -lt 1000 ]; do
  sleep 0.01
  tries=$((tries + 1))
done
kill -9 "$victim" 2>/dev/null || true
wait "$victim" 2>/dev/null || true
echo "killed with $(journal_lines "$dir/run.ckpt") of 49 journal lines written"
"$cli" diagnose "$@" --threads 2 --checkpoint "$dir/run.ckpt" --resume \
  --json "$dir/resumed.json" > /dev/null
cmp "$dir/ref_t1.json" "$dir/resumed.json"

# Tear the last journal line in half, resume again, and append after it.
size=$(wc -c < "$dir/run.ckpt")
head -c $((size - 40)) "$dir/run.ckpt" > "$dir/torn.ckpt"
"$cli" diagnose "$@" --threads 2 --checkpoint "$dir/torn.ckpt" --resume \
  --json "$dir/torn.json" > /dev/null
cmp "$dir/ref_t1.json" "$dir/torn.json"
echo "cli resume ok: resumed result JSON byte-identical to the reference"
