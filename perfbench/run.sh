#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from, then
# runs it with the given arguments. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload frostt-cold --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary and everything the run writes stay under
# .bench_build in that root.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS="" GOTOOLCHAIN=local GOPROXY=off

go -C perfbench build -o "$out/perfbench-bin" . >&2
exec "$out/perfbench-bin" "$@"
