#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources, then runs it:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run it from the root of a checkout; see perfbench/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: no dune-project or lib/ here; run from a repository checkout" >&2
  exit 2
fi
DUNE_CACHE=disabled dune build --root . --display quiet ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
