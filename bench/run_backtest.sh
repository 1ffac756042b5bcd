#!/usr/bin/env bash
# Runs the streaming + backtest benchmark and writes BENCH_backtest.json at
# the repo root: durable append throughput (1 appender vs 8 sharing
# group-commit fsyncs, medians of 5 trials) and rolling-origin backtest
# throughput (origins/sec at 1 thread vs N, with the bit-identical
# cross-check the backtest job type advertises).
#
# Usage: bench/run_backtest.sh [build_dir]   (default: build)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
bin="$build_dir/bench/bench_backtest"

if [[ ! -x "$bin" ]]; then
  echo "bench_backtest not found at $bin — build first:" >&2
  echo "  cmake -B build -S . && cmake --build build -j" >&2
  exit 1
fi

"$bin" "$repo_root/BENCH_backtest.json"
echo "wrote $repo_root/BENCH_backtest.json"
