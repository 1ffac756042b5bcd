#!/usr/bin/env bash
# Runs the storage-engine benchmark and writes BENCH_store.json at the repo
# root: bulk-write throughput (buffered appends closed by one Sync), durable
# append throughput with 1, 8 and 32 appenders sharing group-commit fsyncs
# (medians and spread of 5 trials), recovery time as the record count
# grows, and the on-disk compaction ratio.
#
# Usage: bench/run_store.sh [build_dir]   (default: build)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
bin="$build_dir/bench/bench_store"

if [[ ! -x "$bin" ]]; then
  echo "bench_store not found at $bin — build first:" >&2
  echo "  cmake -B build -S . && cmake --build build -j" >&2
  exit 1
fi

"$bin" "$repo_root/BENCH_store.json"
echo "wrote $repo_root/BENCH_store.json"
