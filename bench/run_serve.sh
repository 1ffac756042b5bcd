#!/usr/bin/env bash
# Runs the serving-layer benchmark and writes BENCH_serve.json at the repo
# root: cache-hit vs cache-miss forecast latency, the multi-worker job pool
# (min(cores, 4) workers when >1 core is available) vs sequential jobs as
# the median and spread of 5 alternating trials, and the QoS section as 5
# trials on a fresh server each: overload shedding under 4x ask
# oversubscription (the forecast latency inside its guaranteed quota as a
# median and spread, the ok/shed counts per trial) plus the latency of a
# deadline-bounded mid-fit abort. Every section carries a "threads"
# field recording the configuration it ran with. TCP front-end throughput
# is measured by perfbench (forecast_hot), not here.
#
# Usage: bench/run_serve.sh [build_dir]   (default: build)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
bin="$build_dir/bench/bench_serve"

if [[ ! -x "$bin" ]]; then
  echo "bench_serve not found at $bin — build first:" >&2
  echo "  cmake -B build -S . && cmake --build build -j" >&2
  exit 1
fi

"$bin" "$repo_root/BENCH_serve.json"
echo "wrote $repo_root/BENCH_serve.json"
