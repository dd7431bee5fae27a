#!/usr/bin/env bash
# Build the benchmark from source in this checkout (release profile),
# then run it with the given arguments:
#   bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
# Build output goes to stderr; the run's last stdout line is its JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . --profile release --display quiet --no-print-directory ./perfbench/run.exe >&2
exec ./_build/default/perfbench/run.exe "$@"
