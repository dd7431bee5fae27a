#!/bin/sh
# Golden CLI output: runs a fixed set of seeded commands and prints
# their output and exit codes.  The runtest rule in bin/dune diffs the
# result against cli_golden.expected, so any change to what the CLI
# prints shows up as a diff.  Only the wall-clock fields
# (events_per_sec and repair_ms_*) are masked; everything else is
# deterministic.
set -u
cli="$1"
cli="$(cd "$(dirname "$cli")" && pwd)/$(basename "$cli")"
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
# run inside the scratch directory so file names in messages are stable
cd "$dir" || exit 1

mask() {
  sed -E 's/(events_per_sec|repair_ms_p[0-9]+)("?[=:])[^ ,}]*/\1\2#/g'
}

# code CMD...: masked stdout and stderr, then the exit code
code() {
  "$@" >"out" 2>&1
  c=$?
  mask <"out"
  echo "exit=$c"
}

# trace recordings are long: print the header, the stats trailer and a
# checksum of the whole file
trace_digest() {
  "$cli" trace "$@" -o "t.jsonl"
  echo "exit=$? lines=$(wc -l <"t.jsonl" | tr -d ' ') cksum=$(cksum <"t.jsonl" | cut -d' ' -f1)"
  head -n 1 "t.jsonl"
  tail -n 1 "t.jsonl"
}

g="-g udg:14,4,1.2 --seed 7"

echo "### serve text with queries"
code "$cli" serve $g --synth 40 --batch 6 --check --query 0:1 --query 1:0 --query 2:9
echo "### serve --json with queries"
code "$cli" serve $g --synth 40 --batch 6 --check --json --query 0:1 --query 2:9

echo "### serve --max-batch/--rate, a rejected and a skipped batch, health on stderr"
code "$cli" serve $g --synth 40 --batch 6 --max-batch 5 --rate 6 --health-every 2
echo "### serve --rate deferrals, burned queue_depth SLO, --health-out"
code "$cli" serve $g --synth 60 --batch 4 --max-batch 5 --rate 3 --health-every 3 \
  --slo queue_depth=4 --health-out "h.jsonl" --json
mask <"h.jsonl"
echo "### serve --rate far below the stream: the end-of-stream drain applies every deferred batch"
code "$cli" serve $g --synth 40 --batch 4 --max-batch 5 --rate 0.000001 --json
echo "### serve --health-every with a generous SLO"
code "$cli" serve $g --synth 40 --batch 6 --check --health-every 2 \
  --health-out "h2.jsonl" --slo p99_repair_ms=100000 --slo events_per_sec=0
mask <"h2.jsonl"

echo "### serve --wal, then --recover (text and json)"
code "$cli" serve $g --synth 40 --batch 5 --wal "w" --auto-snapshot 3 --check \
  --health-every 4 --health-out "h3.jsonl"
mask <"h3.jsonl"
code "$cli" serve --recover --wal "w" --synth 10 --batch 5 --check
code "$cli" serve --recover --wal "w" --check --json --query 0:1

echo "### serve --snapshot, then --restore"
code "$cli" serve $g --synth 40 --batch 6 --check --snapshot "s.snap"
code "$cli" serve --restore "s.snap" --synth 12 --batch 4 --check --json
code "$cli" serve --restore "s.snap" --synth 12 --batch 0 --query 3:4

echo "### serve --events with flush markers"
cat >"ev.jsonl" <<'EOF'
# comment lines and blank lines are skipped

{"ev":"join","node":6,"neighbors":[0,5]}
{"ev":"flush"}
{"ev":"leave","node":2}
{"ev":"move","node":3,"neighbors":[0,4]}
{"ev":"flush"}
{"ev":"degrade","u":4,"v":5}
EOF
code "$cli" serve -g path:6 --events "ev.jsonl" --check --query 0:6 --query 3:0
code "$cli" serve -g path:6 --events "ev.jsonl" --batch 1 --json

echo "### serve argument errors"
code "$cli" serve --recover
code "$cli" serve $g --recover --wal "w"
code "$cli" serve $g --restore "s.snap"
code "$cli" serve --synth 4
code "$cli" serve $g --synth 4 --events "ev.jsonl"
code "$cli" serve --restore "missing.snap"

for a in distmis distmis-general distmis-gps dfs dmgc greedy randomized exact; do
  echo "### schedule -a $a"
  code "$cli" schedule -g udg:10,4,1.2 --seed 7 -a $a
done
echo "### schedule -a distmis --domains 2"
code "$cli" schedule $g -a distmis --domains 2 --show-slots

for a in dfs distmis distmis-general; do
  echo "### faults -a $a --json"
  code "$cli" faults -g udg:12,4,1.2 --seed 7 -a $a --drop 0.15 --crashes 2 --json
done
echo "### faults -a distmis --json --domains 2"
code "$cli" faults -g udg:12,4,1.2 --seed 7 -a distmis --drop 0.15 --json --domains 2
echo "### faults text"
code "$cli" faults -g udg:12,4,1.2 --seed 7 --drop 0.15 --duplicate 0.05 --crashes 2

for a in distmis distmis-general dfs dmgc stabilize; do
  echo "### trace -a $a"
  trace_digest -g udg:10,4,1.2 --seed 7 -a $a
done
echo "### trace replay and summary"
"$cli" trace -g udg:10,4,1.2 --seed 7 -a distmis -o "t.jsonl"
code "$cli" trace -g udg:10,4,1.2 --seed 7 --replay "t.jsonl"
code "$cli" trace --summary "t.jsonl"
