// Cluster tier benchmark (DESIGN.md §14): SIGKILL failover of the sharded
// serving tier, emitted as JSON (BENCH_cluster.json via
// bench/run_cluster.sh). Each of kFailoverTrials starts a fresh one-shard
// cluster with a replica, kills the primary, and records the ms until the
// replica serves a (tagged) degraded read and the ms until promotion
// restores first-class service, proving each time that the acked append
// offset chain survived. Medians and spreads, with the core count and build
// type.
//
// Routed throughput is perfbench's to measure (its routed_hot workload),
// not this harness's.
//
// Spawns real easytime_shard_worker processes (path baked in via
// EASYTIME_WORKER_BIN, like tests/test_cluster.cc).
//
//   ./build/bench/bench_cluster [output.json]

#include <signal.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "cluster/router.h"
#include "cluster/worker.h"
#include "common/json.h"
#include "common/stopwatch.h"
#include "core/easytime.h"

using namespace easytime;

namespace {

namespace fs = std::filesystem;

std::string BenchDir(const std::string& leaf) {
  std::string dir =
      (fs::temp_directory_path() / ("easytime_bench_cluster_" + leaf))
          .string();
  fs::remove_all(dir);
  return dir;
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "bench_cluster: %s\n", what.c_str());
  std::exit(1);
}

// ---- failover latency ------------------------------------------------------

struct FailoverNumbers {
  double time_to_degraded_read_ms = 0.0;
  double failover_ms = 0.0;
};

Json CallRouter(cluster::ClusterRouter& router, int64_t id,
                const std::string& endpoint, Json params) {
  Json req = Json::Object();
  req.Set("id", id);
  req.Set("endpoint", endpoint);
  req.Set("params", std::move(params));
  auto parsed = Json::Parse(router.HandleLine(req.Dump()));
  if (!parsed.ok()) Die("unparseable router response");
  return std::move(*parsed);
}

Json AppendParams(const std::string& dataset, int n, double base) {
  Json params = Json::Object();
  params.Set("dataset", dataset);
  Json arr = Json::Array();
  for (int i = 0; i < n; ++i) arr.Append(base + i);
  params.Set("values", std::move(arr));
  return params;
}

FailoverNumbers MeasureFailover(const std::string& dataset) {
  cluster::ClusterRouter::Options opt;
  opt.worker_binary = EASYTIME_WORKER_BIN;
  opt.work_dir = BenchDir("failover");
  opt.preset = "small";
  opt.shards = 1;
  opt.replicate = true;
  opt.health_interval_ms = 25.0;  // the background thread drives failover
  // No shipping passes: the two appends stay in the active WAL segment,
  // which never ships; promotion's catch-up copies it from the frozen
  // store directory.
  opt.ship_interval_ms = 0.0;
  cluster::ClusterRouter router(opt);
  if (auto st = router.Start(); !st.ok()) Die("router: " + st.ToString());

  FailoverNumbers out;

  // Acked appends: durable the moment the ack arrives.
  Json first = CallRouter(router, 1, "append", AppendParams(dataset, 4, 1.0));
  if (!first.GetBool("ok", false)) Die("append failed: " + first.Dump());
  Json second = CallRouter(router, 2, "append", AppendParams(dataset, 3, 5.0));
  if (!second.GetBool("ok", false)) Die("append failed: " + second.Dump());
  const int64_t acked_length = second.Get("result").GetInt("length", 0);

  // Kill -9 the only primary and measure service restoration.
  if (!router.KillShardPrimary("shard-0", SIGKILL).ok()) Die("kill failed");
  Json forecast_params = Json::Object();
  forecast_params.Set("dataset", dataset);
  forecast_params.Set("method", "theta");
  forecast_params.Set("horizon", int64_t{4});

  Stopwatch watch;
  bool degraded_seen = false;
  bool restored = false;
  for (int i = 0; i < 24000 && !restored; ++i) {
    Json resp = CallRouter(router, 100 + i, "forecast", forecast_params);
    if (resp.GetBool("ok", false)) {
      if (resp.Get("result").GetBool("degraded", false)) {
        if (!degraded_seen) {
          degraded_seen = true;
          out.time_to_degraded_read_ms = watch.ElapsedMillis();
        }
      } else {
        restored = true;
        out.failover_ms = watch.ElapsedMillis();
      }
    }
    if (!restored) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (!restored) Die("failover did not complete within the poll budget");

  // The promoted store must continue the exact acked offset chain.
  Json resume = AppendParams(dataset, 2, 8.0);
  resume.Set("start", acked_length);
  Json resumed = CallRouter(router, 50000, "append", std::move(resume));
  if (!resumed.GetBool("ok", false) ||
      resumed.Get("result").GetInt("length", 0) != acked_length + 2) {
    Die("acked append lost across failover: " + resumed.Dump());
  }

  router.Stop();
  fs::remove_all(opt.work_dir);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  constexpr int kFailoverTrials = 5;

  // Only for a dataset name the workers' "small" preset also holds.
  auto preset = cluster::PresetOptions("small");
  if (!preset.ok()) Die(preset.status().ToString());
  auto system = core::EasyTime::Create(*preset);
  if (!system.ok()) Die(system.status().ToString());
  const std::string dataset = (*system)->repository()->names()[0];

  std::vector<double> degraded_read_ms, failover_ms;
  for (int t = 0; t < kFailoverTrials; ++t) {
    FailoverNumbers trial = MeasureFailover(dataset);
    degraded_read_ms.push_back(trial.time_to_degraded_read_ms);
    failover_ms.push_back(trial.failover_ms);
  }

  Json out = Json::Object();
  benchutil::SetBuildInfo(&out);
  Json fo = Json::Object();
  fo.Set("threads", static_cast<int64_t>(1));
  fo.Set("time_to_degraded_read_ms",
         benchutil::TrialSummary(degraded_read_ms));
  fo.Set("failover_ms", benchutil::TrialSummary(failover_ms));
  // Every trial dies unless the promoted store continues the acked chain.
  fo.Set("acked_append_preserved", true);
  out.Set("failover", std::move(fo));

  std::string payload = out.Dump(2);
  std::printf("%s\n", payload.c_str());
  if (argc > 1) {
    std::FILE* f = std::fopen(argv[1], "w");
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", argv[1]);
      return 1;
    }
    std::fputs(payload.c_str(), f);
    std::fputs("\n", f);
    std::fclose(f);
  }
  return 0;
}
