#!/usr/bin/env bash
# Build the NVX benchmark from source in this checkout, then run it.
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build outputs go to $CARGO_TARGET_DIR when it is set (a directory
# relative to the checkout root), else to _build; the traced run writes
# its Chrome JSON traces to perfbench-trace/ inside that directory.
# Dune's shared cache is off so that nothing is written outside the
# checkout.
set -eu
cd "$(dirname "$0")/.."
build="${CARGO_TARGET_DIR:-_build}"
DUNE_CACHE=disabled dune build --root . --build-dir "$build" --profile release ./perfbench/nvxbench.exe >&2
exec "$build/default/perfbench/nvxbench.exe" --out "$build/perfbench-trace" "$@"
