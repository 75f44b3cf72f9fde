#!/usr/bin/env bash
# Build the benchmark from source, then run it; all arguments pass through:
#   bash perfbench/run.sh --workload replay-hot --seed 1 --seconds 10 --trace 0
# Run from the root of a source checkout.  Build output goes to stderr so
# the last line of stdout is the benchmark's JSON result.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f perfbench/dune ]; then
  echo "perfbench: not the root of a vapor source checkout" >&2
  exit 2
fi
# Keep every build artifact inside the checkout (no shared dune cache).
export DUNE_CACHE=disabled
dune build --root . ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
