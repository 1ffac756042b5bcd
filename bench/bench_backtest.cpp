// Streaming + backtest benchmark (DESIGN.md §13): the two numbers the
// streaming subsystem exists for, emitted as JSON (BENCH_backtest.json via
// bench/run_backtest.sh):
//
//   1. append   — durable streaming-append throughput through the
//                 AppendLog: 1 appender vs N concurrent appenders on
//                 distinct datasets sharing group-commit fsyncs (median and
//                 spread of 5 trials)
//   2. backtest — rolling-origin evaluation throughput (origins/sec) at
//                 1 thread vs N (median and spread of 5 trials, each
//                 kBacktestRepeats back-to-back backtests so one trial is
//                 long enough to time), plus a bit-identical cross-check of
//                 every report (fit_seconds zeroed — wall-clock is the one
//                 field outside the determinism contract)
//
//   ./build/bench/bench_backtest [output.json]

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/json.h"
#include "common/stopwatch.h"
#include "eval/backtest.h"
#include "tsdata/append_log.h"
#include "tsdata/generator.h"
#include "tsdata/repository.h"

using namespace easytime;

namespace {

namespace fs = std::filesystem;

const char* kDir = "/tmp/easytime_bench_backtest";

void Die(const Status& status) {
  std::fprintf(stderr, "bench_backtest: %s\n", status.ToString().c_str());
  std::exit(1);
}

// ---- 1. streaming append throughput ---------------------------------------

tsdata::Repository MakeRepo(size_t datasets) {
  tsdata::Repository repo;
  for (size_t d = 0; d < datasets; ++d) {
    tsdata::GeneratorConfig cfg;
    cfg.name = "stream_" + std::to_string(d);
    cfg.length = 128;
    cfg.seed = 100 + d;
    auto status = repo.Add(tsdata::GenerateDataset(cfg));
    if (!status.ok()) Die(status);
  }
  return repo;
}

/// Appends \p batches batches of \p batch_size points per appender thread,
/// each thread owning one dataset (the log serializes per dataset, shares
/// fsyncs across datasets). Returns appended points per second.
double AppendThroughput(size_t appenders, size_t batches, size_t batch_size) {
  fs::remove_all(kDir);
  tsdata::Repository repo = MakeRepo(appenders);
  tsdata::AppendLogOptions opt;
  opt.dir = kDir;
  opt.compact_every = 0;  // measure the WAL, not compaction
  auto log = tsdata::AppendLog::Open(opt, &repo, nullptr);
  if (!log.ok()) Die(log.status());

  std::atomic<size_t> failures{0};
  Stopwatch watch;
  std::vector<std::thread> threads;
  threads.reserve(appenders);
  for (size_t t = 0; t < appenders; ++t) {
    threads.emplace_back([&, t] {
      const std::string name = "stream_" + std::to_string(t);
      size_t start = 128;
      for (size_t b = 0; b < batches; ++b) {
        tsdata::AppendRecord rec;
        rec.dataset = name;
        rec.start = start;
        rec.channels.emplace_back(batch_size, static_cast<double>(b));
        if (!(*log)->Append(rec).ok()) failures.fetch_add(1);
        start += batch_size;
      }
    });
  }
  for (auto& th : threads) th.join();
  const double seconds = watch.ElapsedSeconds();
  if (failures.load() != 0) Die(Status::IOError("append failed"));
  const double points =
      static_cast<double>(appenders * batches * batch_size);
  return seconds > 0.0 ? points / seconds : 0.0;
}

// ---- 2. backtest origins/sec ----------------------------------------------

std::vector<double> BenchSeries() {
  tsdata::GeneratorConfig cfg;
  cfg.name = "bench";
  cfg.length = 3200;
  cfg.level = 25.0;
  cfg.period = 24;
  cfg.season_amp = 5.0;
  cfg.trend_slope = 0.01;
  cfg.noise_std = 0.8;
  cfg.ar_coef = 0.3;
  cfg.seed = 9;
  return tsdata::GenerateSeries(cfg).values();
}

eval::BacktestConfig BenchConfig(const std::string& method) {
  eval::BacktestConfig cfg;
  cfg.method = method;
  cfg.origins = 48;
  cfg.horizon = 24;
  cfg.stride = 24;
  return cfg;
}

/// The report's JSON with per-origin fit_seconds zeroed: everything that is
/// part of the determinism contract, nothing that is not.
std::string CanonicalReport(const eval::BacktestReport& report) {
  Json j = report.ToJson();
  Json origins = Json::Array();
  for (const auto& origin : j.Get("origins").items()) {
    Json o = origin;
    o.Set("fit_seconds", 0.0);
    origins.Append(std::move(o));
  }
  j.Set("origins", std::move(origins));
  return j.Dump();
}

// One 48-origin backtest takes ~1-4 ms; a trial times this many in a row.
constexpr int kBacktestRepeats = 10;

/// Origins per second over kBacktestRepeats backtests. Every report must
/// canonicalise to \p *canonical (set from the first report when empty).
double TimedBacktests(const std::vector<double>& values,
                      const std::string& method, size_t max_threads,
                      std::string* canonical) {
  eval::BacktestHooks hooks;
  hooks.max_threads = max_threads;
  size_t origins = 0;
  Stopwatch watch;
  for (int r = 0; r < kBacktestRepeats; ++r) {
    auto report = eval::RunBacktest(values, 24, BenchConfig(method), hooks);
    if (!report.ok()) Die(report.status());
    origins += report->origins.size();
    const std::string got = CanonicalReport(*report);
    if (canonical->empty()) *canonical = got;
    if (got != *canonical) {
      std::fprintf(stderr,
                   "bench_backtest: %s report differs at %zu threads\n",
                   method.c_str(), max_threads);
      std::exit(1);
    }
  }
  const double seconds = watch.ElapsedSeconds();
  return seconds > 0.0 ? static_cast<double>(origins) / seconds : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Json out = Json::Object();
  benchutil::SetBuildInfo(&out);

  // Streaming ingestion: points/sec through the durable append log, 1
  // appender vs 8; the speedup is of the medians.
  constexpr int kTrials = 5;
  constexpr size_t kAppenders = 8;
  std::vector<double> single, grouped;
  for (int trial = 0; trial < kTrials; ++trial) {
    single.push_back(AppendThroughput(1, 400, 8));
    grouped.push_back(AppendThroughput(kAppenders, 400, 8));
  }
  Json single_json = benchutil::TrialSummary(single);
  Json grouped_json = benchutil::TrialSummary(grouped);
  const double single_median = single_json.GetDouble("median", 0.0);
  const double grouped_median = grouped_json.GetDouble("median", 0.0);
  Json append_json = Json::Object();
  append_json.Set("batch_points", static_cast<int64_t>(8));
  append_json.Set("points_per_sec_1_appender", std::move(single_json));
  append_json.Set("appenders", static_cast<int64_t>(kAppenders));
  append_json.Set("points_per_sec_n_appenders", std::move(grouped_json));
  append_json.Set("speedup_vs_1_appender",
                  single_median > 0.0 ? grouped_median / single_median : 0.0);
  out.Set("append", std::move(append_json));

  // Rolling-origin backtest: origins/sec at 1 thread vs hardware threads,
  // and the bit-identical cross-check the job type advertises.
  const unsigned hw = std::thread::hardware_concurrency();
  const size_t threads = hw > 1 ? hw : 2;
  const std::vector<double> values = BenchSeries();
  Json backtest_json = Json::Array();
  for (const std::string& method : {std::string("theta"),
                                    std::string("ses")}) {
    // The 1-thread reference report; a warm-up batch per side keeps pool
    // spin-up and first-touch allocation out of the trials.
    std::string canonical;
    TimedBacktests(values, method, 1, &canonical);
    TimedBacktests(values, method, threads, &canonical);
    std::vector<double> seq, par;
    for (int trial = 0; trial < kTrials; ++trial) {
      seq.push_back(TimedBacktests(values, method, 1, &canonical));
      par.push_back(TimedBacktests(values, method, threads, &canonical));
    }
    Json seq_json = benchutil::TrialSummary(seq);
    Json par_json = benchutil::TrialSummary(par);
    const double seq_median = seq_json.GetDouble("median", 0.0);
    const double par_median = par_json.GetDouble("median", 0.0);
    Json point = Json::Object();
    point.Set("method", method);
    point.Set("origins", static_cast<int64_t>(48));
    point.Set("horizon", static_cast<int64_t>(24));
    point.Set("series_length", static_cast<int64_t>(values.size()));
    point.Set("backtests_per_trial", static_cast<int64_t>(kBacktestRepeats));
    point.Set("threads", static_cast<int64_t>(threads));
    point.Set("origins_per_sec_1_thread", std::move(seq_json));
    point.Set("origins_per_sec_n_threads", std::move(par_json));
    point.Set("speedup", seq_median > 0.0 ? par_median / seq_median : 0.0);
    // TimedBacktests exits on any report that differs from the first.
    point.Set("bit_identical", true);
    backtest_json.Append(std::move(point));
  }
  out.Set("backtest", std::move(backtest_json));

  fs::remove_all(kDir);

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
