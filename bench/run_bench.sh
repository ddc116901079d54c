#!/usr/bin/env bash
# Builds and runs every bench that writes a BENCH_<name>.json, leaving the
# files at the repo root so successive changes accumulate a perf
# trajectory. Each file carries the host, SIMD kernel, commit and build
# type in its header (bench/harness.h).
#
# Usage: bench/run_bench.sh [--quick] [BUILD_DIR]
#   --quick    smaller key counts (skips the out-of-LLC batch runs and
#              shrinks the concurrent run).
#   BUILD_DIR  existing CMake build tree (default: build).
set -euo pipefail

cd "$(dirname "$0")/.."

BENCHES="batch concurrent hash obs lsm net tuner range"

QUICK=""
BUILD_DIR="build"
for arg in "$@"; do
  case "$arg" in
    --quick) QUICK="--quick" ;;
    *) BUILD_DIR="$arg" ;;
  esac
done

# Reconfiguring re-reads the commit that the JSON headers record.
cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" --target $(printf 'bench_%s ' $BENCHES) \
  -j "$(nproc)" >/dev/null

for b in $BENCHES; do
  "$BUILD_DIR/bench/bench_$b" $QUICK --json="BENCH_$b.json"
done
