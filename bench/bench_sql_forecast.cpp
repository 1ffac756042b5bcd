// SQL-native forecasting benchmark (DESIGN.md §11): measures the two
// numbers the table-function subsystem exists for and emits them as JSON
// (BENCH_sql.json via bench/run_sql.sh):
//
//   1. ts_forecast    — end-to-end TS_FORECAST latency (parse + analyze +
//                       fit + intervals) per model over a 480-point series
//   2. ts_forecast_by — TS_FORECAST_BY group throughput on the global pool
//                       vs the same query forced onto a single thread
//
// The single-thread leg re-executes this binary with EASYTIME_NUM_THREADS=1
// (the pool size is fixed at process start), so both rows come from the
// identical code path and the speedup column is honest. Each leg runs
// kByTrials timed queries after a warm-up; the speedup is of the medians.
// The fleet is sized and modelled so one query is ~100 ms of group fits on
// one thread: long enough that a 4-thread speedup stands out of the
// trial-to-trial spread, which a few ms of cheap fits did not.
//
//   ./build/bench/bench_sql_forecast [output.json]

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/json.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "sql/executor.h"
#include "sql/table.h"

using namespace easytime;

namespace {

constexpr int kGroups = 256;
constexpr int kGroupLen = 240;
constexpr int kSeriesLen = 480;
constexpr int kByTrials = 7;
constexpr char kByModel[] = "ets_auto";

void Die(const std::string& what, const Status& status) {
  std::fprintf(stderr, "bench_sql_forecast: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(1);
}

/// One long seasonal series plus a fleet of `kGroups` shorter ones.
sql::Database MakeDb() {
  sql::Database db;
  (void)db.CreateTable("series", {{"t", sql::DataType::kInteger},
                                  {"v", sql::DataType::kReal}});
  sql::Table* st = db.GetTable("series").ValueOrDie();
  for (int i = 0; i < kSeriesLen; ++i) {
    double v = 50.0 + 0.2 * i + 10.0 * std::sin(2.0 * 3.14159265 * i / 24.0);
    (void)st->Insert({sql::Value::Integer(i), sql::Value::Real(v)});
  }
  (void)db.CreateTable("fleet", {{"g", sql::DataType::kInteger},
                                 {"t", sql::DataType::kInteger},
                                 {"v", sql::DataType::kReal}});
  sql::Table* ft = db.GetTable("fleet").ValueOrDie();
  for (int g = 0; g < kGroups; ++g) {
    double level = 100.0 + g;
    for (int i = 0; i < kGroupLen; ++i) {
      level += std::sin(0.7 * i + g);  // deterministic wiggle
      (void)ft->Insert({sql::Value::Integer(g), sql::Value::Integer(i),
                        sql::Value::Real(level)});
    }
  }
  return db;
}

/// End-to-end latency of one TS_FORECAST query over \p iters trials, in
/// milliseconds.
Json ForecastLatencyMs(sql::Database* db, const std::string& model,
                       int iters) {
  const std::string query =
      "SELECT * FROM TS_FORECAST(series, t, v, model := '" + model +
      "', horizon := 24, period := 24)";
  std::vector<double> ms;
  ms.reserve(static_cast<size_t>(iters));
  for (int i = 0; i < iters; ++i) {
    Stopwatch watch;
    auto rs = sql::ExecuteQuery(db, query);
    if (!rs.ok()) Die("TS_FORECAST " + model, rs.status());
    ms.push_back(watch.ElapsedSeconds() * 1000.0);
  }
  return benchutil::TrialSummary(std::move(ms));
}

/// Group fits per second of one TS_FORECAST_BY query over the fleet, once
/// per trial.
std::vector<double> GroupThroughput(sql::Database* db) {
  const std::string query =
      std::string("SELECT * FROM TS_FORECAST_BY(fleet, g, t, v, model := '") +
      kByModel + "', horizon := 12)";
  // Warm-up (pool spin-up, allocator).
  if (auto rs = sql::ExecuteQuery(db, query); !rs.ok()) {
    Die("TS_FORECAST_BY", rs.status());
  }
  std::vector<double> fits_per_sec;
  for (int i = 0; i < kByTrials; ++i) {
    Stopwatch watch;
    auto rs = sql::ExecuteQuery(db, query);
    if (!rs.ok()) Die("TS_FORECAST_BY", rs.status());
    fits_per_sec.push_back(kGroups / watch.ElapsedSeconds());
  }
  return fits_per_sec;
}

/// Re-runs this binary single-threaded and reads its per-trial output.
std::vector<double> SingleThreadThroughput(const char* argv0) {
  std::string cmd = std::string("EASYTIME_NUM_THREADS=1 '") + argv0 +
                    "' --by-throughput-only 2>/dev/null";
  std::FILE* pipe = ::popen(cmd.c_str(), "r");
  if (!pipe) Die("single-thread leg", Status::IOError("popen failed"));
  std::vector<double> fits_per_sec;
  double value = 0.0;
  while (std::fscanf(pipe, "%lf", &value) == 1) fits_per_sec.push_back(value);
  if (::pclose(pipe) != 0 || fits_per_sec.size() != kByTrials) {
    Die("single-thread leg", Status::Internal("bad child output"));
  }
  return fits_per_sec;
}

}  // namespace

int main(int argc, char** argv) {
  sql::Database db = MakeDb();

  if (argc > 1 && std::string(argv[1]) == "--by-throughput-only") {
    for (double v : GroupThroughput(&db)) std::printf("%.3f\n", v);
    return 0;
  }

  const int64_t pool_threads =
      static_cast<int64_t>(GlobalThreadPool().size());

  Json out = Json::Object();
  out.Set("bench", "sql_forecast");
  benchutil::SetBuildInfo(&out);
  out.Set("threads", pool_threads);

  Json latency = Json::Array();
  for (const char* model : {"naive", "ses", "theta", "holt", "ets_auto"}) {
    Json row = Json::Object();
    row.Set("model", model);
    row.Set("horizon", static_cast<int64_t>(24));
    row.Set("train_points", static_cast<int64_t>(kSeriesLen));
    row.Set("latency_ms", ForecastLatencyMs(&db, model, 15));
    latency.Append(std::move(row));
  }
  out.Set("ts_forecast", std::move(latency));

  Json par = benchutil::TrialSummary(GroupThroughput(&db));
  Json seq = benchutil::TrialSummary(SingleThreadThroughput(argv[0]));
  const double par_median = par.GetDouble("median", 0.0);
  const double seq_median = seq.GetDouble("median", 0.0);
  Json by = Json::Object();
  by.Set("model", kByModel);
  by.Set("groups", static_cast<int64_t>(kGroups));
  by.Set("points_per_group", static_cast<int64_t>(kGroupLen));
  Json par_row = Json::Object();
  par_row.Set("threads", pool_threads);
  par_row.Set("group_fits_per_sec", std::move(par));
  Json seq_row = Json::Object();
  seq_row.Set("threads", static_cast<int64_t>(1));
  seq_row.Set("group_fits_per_sec", std::move(seq));
  Json runs = Json::Array();
  runs.Append(std::move(seq_row));
  runs.Append(std::move(par_row));
  by.Set("runs", std::move(runs));
  by.Set("speedup", seq_median > 0.0 ? par_median / seq_median : 0.0);
  out.Set("ts_forecast_by", std::move(by));

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
