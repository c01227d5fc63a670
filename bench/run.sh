#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it; BENCHMARK.json
# names this script as the benchmark command.  Run from the repository root:
#
#   bash bench/run.sh --workload gather --seed 2 --seconds 20 --trace 0
#
# Everything the build leaves behind (compiler cache, binary) stays under
# .bench_build/ in the checkout.  The first run in a checkout compiles the
# standard library into that cache; later runs rebuild only what changed.
set -euo pipefail
root=$PWD
mkdir -p "$root/.bench_build"
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local
go build -C "$root/bench" -o "$root/.bench_build/cucc-bench" .
exec "$root/.bench_build/cucc-bench" "$@"
