#!/usr/bin/env bash
# Runs the micro benchmark suite and writes BENCH_micro.json at the repo
# root so the perf trajectory is tracked from PR 1 onward.
#
# Usage: bench/run_micro.sh [build_dir]   (default: build)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
bin="$build_dir/bench/bench_micro"

if [[ ! -x "$bin" ]]; then
  echo "bench_micro not found at $bin — build first:" >&2
  echo "  cmake -B build -S . && cmake --build build -j" >&2
  exit 1
fi

# min_time well above the 0.5s default: the training-epoch benchmarks run
# tens of ms per iteration, and on a busy 1-core CI box the default window
# is few enough iterations that tier-vs-tier ratios wobble run to run.
# Five repetitions per benchmark, reported as aggregates only (mean, median,
# stddev, cv), so each number comes with its run-to-run spread.
"$bin" --benchmark_format=json --benchmark_out="$repo_root/BENCH_micro.json" \
  --benchmark_out_format=json --benchmark_min_time=2.0 \
  --benchmark_repetitions=5 --benchmark_report_aggregates_only=true
echo "wrote $repo_root/BENCH_micro.json"
