#!/usr/bin/env bash
# Runs the sharded serving tier benchmark and writes BENCH_cluster.json at
# the repo root: SIGKILL failover latency over 5 trials, each on a fresh
# one-shard cluster with a replica (time to the first degraded replica read
# and to the first post-promotion first-class response, as medians and
# spreads, with the acked append offset chain verified intact every time),
# plus the core count and build type. Spawns real easytime_shard_worker
# processes. Routed throughput is perfbench's routed_hot workload.
#
# Usage: bench/run_cluster.sh [build_dir]   (default: build)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
bin="$build_dir/bench/bench_cluster"
worker="$build_dir/src/cluster/easytime_shard_worker"

if [[ ! -x "$bin" || ! -x "$worker" ]]; then
  echo "bench_cluster or easytime_shard_worker not found under $build_dir — build first:" >&2
  echo "  cmake -B build -S . && cmake --build build -j" >&2
  exit 1
fi

"$bin" "$repo_root/BENCH_cluster.json"
echo "wrote $repo_root/BENCH_cluster.json"
