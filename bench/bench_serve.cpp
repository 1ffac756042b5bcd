// Serving-layer benchmark (DESIGN.md §6): measures the three numbers the
// serving layer exists for and emits them as JSON (BENCH_serve.json via
// bench/run_serve.sh):
//
//   1. cache     — forecast latency, cache hit vs cache miss
//   2. job_pool  — two concurrent evaluations vs the same two run
//                  back-to-back (median and spread of kJobPoolTrials)
//   3. qos       — overload shedding (4x ask oversubscription vs a concurrent
//                  forecast) and the latency of a deadline-bounded fit abort
//                  (median and spread of kQosTrials, one server each)
//
// Throughput over the TCP front-end is perfbench's to measure (its
// forecast_hot workload), not this harness's.
//
//   ./build/bench/bench_serve [output.json]

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "core/easytime.h"
#include "serve/job_manager.h"
#include "serve/server.h"

using namespace easytime;

namespace {

std::unique_ptr<core::EasyTime> MakeSystem() {
  core::EasyTime::Options opt;
  opt.suite.univariate_per_domain = 1;
  opt.suite.multivariate_total = 1;
  opt.seed_methods = {"naive", "seasonal_naive", "theta", "ses", "drift"};
  opt.ensemble.ts2vec.epochs = 3;
  opt.ensemble.classifier.epochs = 80;
  auto system = core::EasyTime::Create(opt);
  if (!system.ok()) {
    std::fprintf(stderr, "create: %s\n", system.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(*system);
}

std::string ForecastLine(const std::string& dataset, const std::string& method,
                         int id, int horizon) {
  return R"({"id": )" + std::to_string(id) +
         R"(, "endpoint": "forecast", "params": {"dataset": ")" + dataset +
         R"(", "method": ")" + method + R"(", "horizon": )" +
         std::to_string(horizon) + "}}";
}

void Expect(const std::string& response) {
  auto json = Json::Parse(response);
  if (!json.ok() || !json->GetBool("ok", false)) {
    std::fprintf(stderr, "bench request failed: %s\n", response.c_str());
    std::exit(1);
  }
}

// ---- 1. cache hit vs miss -------------------------------------------------

struct CacheNumbers {
  double miss_mean_ms = 0.0;
  double hit_mean_ms = 0.0;
};

CacheNumbers BenchCache(serve::ForecastServer* server,
                        const std::vector<std::string>& datasets) {
  // gbdt has a real fit cost, so the miss path is honest work.
  const std::string method = "gbdt";
  constexpr int kMisses = 20;
  constexpr int kHits = 200;

  CacheNumbers out;
  Stopwatch watch;
  for (int i = 0; i < kMisses; ++i) {
    // Distinct horizons => distinct cache keys => all misses.
    Expect(server->HandleLine(
        ForecastLine(datasets[i % datasets.size()], method, i, 4 + i)));
  }
  out.miss_mean_ms = watch.ElapsedMillis() / kMisses;

  const std::string hot = ForecastLine(datasets[0], method, 999, 4);
  Expect(server->HandleLine(hot));  // prime
  watch.Reset();
  for (int i = 0; i < kHits; ++i) Expect(server->HandleLine(hot));
  out.hit_mean_ms = watch.ElapsedMillis() / kHits;
  return out;
}

// ---- 2. job pool: 2 concurrent evaluations vs sequential -------------------

Json MakeJobConfig(const std::string& key) {
  auto config = Json::Parse(R"({
    "methods": ["gbdt", "theta", "ses", "naive"],
    "evaluation": {"strategy": "fixed", "horizon": 12, "metrics": ["mae"]}
  })");
  if (!config.ok()) std::exit(1);
  config->Set("job_key", key);
  return *config;
}

void AwaitJobDone(const serve::JobManager& manager, uint64_t id) {
  for (;;) {
    auto s = manager.StatusJson(id);
    if (!s.ok()) std::exit(1);
    std::string state = s->GetString("state", "");
    if (state == "done") return;
    if (state == "failed" || state == "cancelled") {
      std::fprintf(stderr, "job pool bench: job ended %s\n", state.c_str());
      std::exit(1);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// Runs the same two evaluation jobs through a pool of \p concurrency
/// workers and returns the wall time; peak_running is written through.
double RunJobPair(core::EasyTime* system, size_t concurrency,
                  uint64_t* peak_running) {
  serve::JobManager::Options opt;
  opt.queue_capacity = 4;
  opt.concurrency = concurrency;
  serve::JobManager manager(system, opt);
  manager.Start();
  Stopwatch watch;
  auto a = manager.Submit(MakeJobConfig("bench-pool-a"));
  auto b = manager.Submit(MakeJobConfig("bench-pool-b"));
  if (!a.ok() || !b.ok()) std::exit(1);
  AwaitJobDone(manager, *a);
  AwaitJobDone(manager, *b);
  double seconds = watch.ElapsedSeconds();
  if (peak_running) *peak_running = manager.stats().peak_running;
  manager.Shutdown();
  return seconds;
}

// ---- 3. qos: overload shedding and deadline-bounded fits -------------------

/// One qos trial, run on a fresh server so its counters start at zero.
struct QosNumbers {
  double forecast_under_overload_ms = 0.0;
  int64_t asks_ok = 0;
  int64_t asks_shed = 0;
  int64_t shed_total = 0;
  double deadline_abort_ms = 0.0;
  int64_t deadline_exceeded = 0;
};

QosNumbers BenchQos(core::EasyTime* system, const std::string& dataset) {
  serve::ForecastServer::Options opt;
  opt.fast_lane_workers = 2;
  opt.fast_lane_capacity = 8;  // admission capacity; 32 asks = 4x overload
  opt.cache_capacity = 0;
  serve::ForecastServer server(system, opt);
  server.Start();

  QosNumbers out;

  // (a) 4x oversubscription: 32 slow asks against an admission capacity of
  // 8. The excess sheds Unavailable; a forecast arriving mid-burst completes
  // within its guaranteed worker share instead of waiting out the backlog.
  {
    constexpr int kAskClients = 32;
    std::atomic<int64_t> ok{0};
    std::atomic<int64_t> shed{0};
    std::vector<std::thread> askers;
    for (int i = 0; i < kAskClients; ++i) {
      askers.emplace_back([&]() {
        const std::string line =
            R"({"id": 1, "endpoint": "ask", "params": {"question": )"
            R"("What is the average mae of theta?", "sleep_ms": 100}})";
        auto resp = Json::Parse(server.HandleLine(line));
        if (resp.ok() && resp->GetBool("ok", false)) {
          ok.fetch_add(1);
        } else {
          shed.fetch_add(1);
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    Stopwatch watch;
    Expect(server.HandleLine(ForecastLine(dataset, "naive", 77, 4)));
    out.forecast_under_overload_ms = watch.ElapsedMillis();
    for (auto& t : askers) t.join();
    out.asks_ok = ok.load();
    out.asks_shed = shed.load();
  }

  // (b) Deadline-bounded fit: a gbdt configuration that takes seconds to fit
  // in full, capped at 60ms — measures how fast the mid-fit abort returns.
  {
    std::string values;
    double level = 50.0;
    uint64_t s = 0x9e3779b97f4a7c15ULL;
    for (int i = 0; i < 6000; ++i) {
      s = s * 6364136223846793005ULL + 1442695040888963407ULL;
      level += static_cast<double>((s >> 40) % 1000) / 1000.0 - 0.5;
      if (i) values += ",";
      values += std::to_string(level);
    }
    const std::string line =
        R"({"id": 9, "endpoint": "forecast", "params": {"method": "gbdt", )"
        R"("config": {"num_trees": 400, "max_depth": 6}, "horizon": 8, )"
        R"("deadline_ms": 60, "values": [)" +
        values + "]}}";
    Stopwatch watch;
    auto resp = Json::Parse(server.HandleLine(line));
    out.deadline_abort_ms = watch.ElapsedMillis();
    if (!resp.ok() || resp->GetBool("ok", false)) {
      std::fprintf(stderr, "qos bench: deadline abort did not fire\n");
      std::exit(1);
    }
  }

  Json stats = server.StatsJson();
  out.shed_total = stats.Get("admission").GetInt("shed_total", 0);
  out.deadline_exceeded = stats.GetInt("deadline_exceeded", 0);
  server.Stop();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  auto system = MakeSystem();
  const std::vector<std::string> datasets = system->repository()->names();

  serve::ForecastServer server(system.get());
  server.Start();

  CacheNumbers cache = BenchCache(&server, datasets);
  server.Stop();

  // The concurrent configuration scales with the machine: min(cores, 4)
  // workers when more than one core is available, else the 2-worker pool
  // (which still exercises overlap even if wall time cannot improve).
  const unsigned hc = std::thread::hardware_concurrency();
  const size_t pool_workers =
      hc >= 2 ? std::min<size_t>(hc, 4) : 2;
  // Alternate the two configurations so drift on the box hits both alike.
  constexpr int kJobPoolTrials = 5;
  uint64_t pool_peak = 0;
  std::vector<double> sequential_seconds, concurrent_seconds;
  for (int t = 0; t < kJobPoolTrials; ++t) {
    sequential_seconds.push_back(RunJobPair(system.get(), 1, nullptr));
    concurrent_seconds.push_back(
        RunJobPair(system.get(), pool_workers, &pool_peak));
  }

  constexpr int kQosTrials = 5;
  std::vector<QosNumbers> qos;
  for (int t = 0; t < kQosTrials; ++t) {
    qos.push_back(BenchQos(system.get(), datasets[0]));
  }

  Json out = Json::Object();
  benchutil::SetBuildInfo(&out);
  Json cache_json = Json::Object();
  cache_json.Set("threads", static_cast<int64_t>(1));
  cache_json.Set("miss_mean_ms", cache.miss_mean_ms);
  cache_json.Set("hit_mean_ms", cache.hit_mean_ms);
  cache_json.Set("speedup",
                 cache.hit_mean_ms > 0.0
                     ? cache.miss_mean_ms / cache.hit_mean_ms
                     : 0.0);
  out.Set("cache", std::move(cache_json));

  Json pool_json = Json::Object();
  pool_json.Set("threads", static_cast<int64_t>(pool_workers));
  Json sequential = benchutil::TrialSummary(sequential_seconds);
  Json concurrent = benchutil::TrialSummary(concurrent_seconds);
  const double concurrent_median = concurrent.GetDouble("median", 0.0);
  pool_json.Set("speedup", concurrent_median > 0.0
                               ? sequential.GetDouble("median", 0.0) /
                                     concurrent_median
                               : 0.0);
  pool_json.Set("sequential_seconds", std::move(sequential));
  pool_json.Set("concurrent_seconds", std::move(concurrent));
  pool_json.Set("peak_running", static_cast<int64_t>(pool_peak));
  // Context for the speedup: two CPU-bound jobs only finish faster than
  // back-to-back when there is more than one core to split.
  pool_json.Set("hardware_concurrency",
                static_cast<int64_t>(std::thread::hardware_concurrency()));
  out.Set("job_pool", std::move(pool_json));

  Json qos_json = Json::Object();
  qos_json.Set("ask_clients", static_cast<int64_t>(32));
  qos_json.Set("admission_capacity", static_cast<int64_t>(8));
  std::vector<double> overload_ms, abort_ms;
  Json per_trial = Json::Array();
  for (const QosNumbers& q : qos) {
    overload_ms.push_back(q.forecast_under_overload_ms);
    abort_ms.push_back(q.deadline_abort_ms);
    Json trial = Json::Object();
    trial.Set("asks_ok", q.asks_ok);
    trial.Set("asks_shed", q.asks_shed);
    trial.Set("shed_total", q.shed_total);
    trial.Set("deadline_exceeded", q.deadline_exceeded);
    per_trial.Append(std::move(trial));
  }
  qos_json.Set("forecast_under_overload_ms",
               benchutil::TrialSummary(overload_ms));
  qos_json.Set("deadline_abort_ms", benchutil::TrialSummary(abort_ms));
  qos_json.Set("per_trial", std::move(per_trial));
  out.Set("qos", std::move(qos_json));

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
