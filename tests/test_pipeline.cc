#include "pipeline/runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "common/csv.h"
#include "methods/forecaster.h"
#include "methods/registry.h"
#include "test_util.h"
#include "tsdata/generator.h"

namespace easytime::pipeline {
namespace {

tsdata::Repository SmallRepo() {
  tsdata::Repository repo;
  tsdata::SuiteSpec spec;
  spec.univariate_per_domain = 1;
  spec.multivariate_total = 1;
  spec.min_length = 160;
  spec.max_length = 200;
  (void)repo.AddSuite(spec);
  return repo;
}

BenchmarkConfig FastConfig() {
  BenchmarkConfig c;
  c.eval.strategy = eval::Strategy::kFixed;
  c.eval.horizon = 8;
  c.eval.metrics = {"mae", "smape"};
  c.methods = {MethodSpec{"naive", Json::Object()},
               MethodSpec{"theta", Json::Object()},
               MethodSpec{"lag_linear", Json::Object()}};
  c.num_threads = 2;
  return c;
}

TEST(BenchmarkConfig, ParsesFullSchema) {
  auto j = Json::Parse(R"({
    "datasets": ["a", "b"],
    "methods": ["naive", {"name": "knn", "config": {"k": 3}}],
    "evaluation": {"strategy": "rolling", "horizon": 12, "metrics": ["mae"]},
    "num_threads": 3,
    "output_csv": "out.csv"
  })").ValueOrDie();
  auto c = BenchmarkConfig::FromJson(j).ValueOrDie();
  EXPECT_EQ(c.datasets, (std::vector<std::string>{"a", "b"}));
  ASSERT_EQ(c.methods.size(), 2u);
  EXPECT_EQ(c.methods[1].name, "knn");
  EXPECT_EQ(c.methods[1].config.GetInt("k", 0), 3);
  EXPECT_EQ(c.eval.strategy, eval::Strategy::kRolling);
  EXPECT_EQ(c.num_threads, 3u);
  EXPECT_EQ(c.output_csv, "out.csv");
}

TEST(BenchmarkConfig, RejectsUnknownMethod) {
  auto j = Json::Parse(R"({"methods": ["hyperprophet"]})").ValueOrDie();
  EXPECT_FALSE(BenchmarkConfig::FromJson(j).ok());
}

TEST(BenchmarkConfig, RejectsMalformedEntries) {
  EXPECT_FALSE(BenchmarkConfig::FromJson(Json(3.0)).ok());
  auto bad = Json::Parse(R"({"methods": [42]})").ValueOrDie();
  EXPECT_FALSE(BenchmarkConfig::FromJson(bad).ok());
  auto noname = Json::Parse(R"({"methods": [{"config": {}}]})").ValueOrDie();
  EXPECT_FALSE(BenchmarkConfig::FromJson(noname).ok());
}

TEST(PipelineRunner, RunsAllPairs) {
  tsdata::Repository repo = SmallRepo();
  PipelineRunner runner(&repo, FastConfig());
  auto report = runner.Run().ValueOrDie();
  EXPECT_EQ(report.records.size(), repo.size() * 3);
  // Every record carries metadata.
  for (const auto& rec : report.records) {
    EXPECT_FALSE(rec.dataset.empty());
    EXPECT_FALSE(rec.method.empty());
    EXPECT_EQ(rec.strategy, "fixed");
    EXPECT_EQ(rec.horizon, 8u);
    EXPECT_FALSE(rec.domain.empty());
  }
  // The easy statistical methods should succeed everywhere.
  EXPECT_EQ(report.Successful().size(), report.records.size());
  EXPECT_GT(report.wall_seconds, 0.0);
}

std::atomic<int> g_fit_inflight{0};
std::atomic<int> g_fit_peak{0};

/// Registered once as "inflight_probe": records the most Fit calls that
/// ever ran at once; the sleep keeps overlapping pairs overlapping.
class InflightProbe final : public methods::Forecaster {
 public:
  Status Fit(const std::vector<double>& train,
             const methods::FitContext&) override {
    const int now = g_fit_inflight.fetch_add(1) + 1;
    int prev = g_fit_peak.load();
    while (now > prev && !g_fit_peak.compare_exchange_weak(prev, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    last_ = train.empty() ? 0.0 : train.back();
    g_fit_inflight.fetch_sub(1);
    return Status::OK();
  }
  Result<std::vector<double>> Forecast(size_t horizon) const override {
    return std::vector<double>(horizon, last_);
  }
  std::string name() const override { return "inflight_probe"; }
  methods::Family family() const override {
    return methods::Family::kStatistical;
  }

 private:
  double last_ = 0.0;
};

// num_threads counts the calling thread: 1 is strictly sequential on a
// direct run, and k never has more than k pairs in flight.
TEST(PipelineRunner, NumThreadsCapsPairsInFlight) {
  static const bool registered =
      methods::MethodRegistry::Global()
          .Register({"inflight_probe", methods::Family::kStatistical,
                     "pipeline test: counts concurrent Fit calls"},
                    [](const Json&) -> Result<methods::ForecasterPtr> {
                      return methods::ForecasterPtr(new InflightProbe());
                    })
          .ok();
  ASSERT_TRUE(registered);
  tsdata::Repository repo = SmallRepo();
  BenchmarkConfig c = FastConfig();
  c.methods = {MethodSpec{"inflight_probe", Json::Object()}};
  for (size_t threads : {1u, 2u}) {
    c.num_threads = threads;
    g_fit_peak.store(0);
    auto report = PipelineRunner(&repo, c).Run();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->Successful().size(), repo.size());
    EXPECT_GE(g_fit_peak.load(), 1);
    EXPECT_LE(g_fit_peak.load(), static_cast<int>(threads))
        << "num_threads " << threads;
  }
}

TEST(PipelineRunner, SubsetOfDatasets) {
  tsdata::Repository repo = SmallRepo();
  BenchmarkConfig c = FastConfig();
  c.datasets = {repo.names()[0], repo.names()[1]};
  auto report = PipelineRunner(&repo, c).Run().ValueOrDie();
  EXPECT_EQ(report.records.size(), 2u * 3u);
}

TEST(PipelineRunner, UnknownDatasetFails) {
  tsdata::Repository repo = SmallRepo();
  BenchmarkConfig c = FastConfig();
  c.datasets = {"definitely_missing"};
  EXPECT_FALSE(PipelineRunner(&repo, c).Run().ok());
}

TEST(PipelineRunner, PerPairFailureIsRecordedNotFatal) {
  tsdata::Repository repo;
  tsdata::Dataset tiny("tiny");
  (void)tiny.AddChannel(
      tsdata::Series("a", {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0}));
  (void)repo.Add(std::move(tiny));

  BenchmarkConfig c = FastConfig();
  c.eval.horizon = 4;
  c.methods = {MethodSpec{"naive", Json::Object()},
               MethodSpec{"arima", Json::Object()}};  // too short for ARIMA
  auto report = PipelineRunner(&repo, c).Run().ValueOrDie();
  ASSERT_EQ(report.records.size(), 2u);
  size_t failed = 0;
  for (const auto& rec : report.records) {
    if (!rec.status.ok()) ++failed;
  }
  EXPECT_EQ(failed, 1u);
  EXPECT_EQ(report.Successful().size(), 1u);
}

TEST(BenchmarkReport, LeaderboardRanksByMetric) {
  BenchmarkReport report;
  auto add = [&](const std::string& method, double mae) {
    RunRecord rec;
    rec.dataset = "d";
    rec.method = method;
    rec.metrics["mae"] = mae;
    rec.status = Status::OK();
    report.records.push_back(rec);
  };
  add("good", 1.0);
  add("bad", 5.0);
  add("good", 2.0);
  add("bad", 6.0);
  auto lb = report.Leaderboard("mae");
  ASSERT_EQ(lb.size(), 2u);
  EXPECT_EQ(lb[0].first, "good");
  EXPECT_NEAR(lb[0].second, 1.5, 1e-12);
  EXPECT_EQ(lb[1].first, "bad");
  // r2 ranks descending.
  for (auto& rec : report.records) rec.metrics["r2"] = rec.method == "good" ? 0.9 : 0.1;
  auto lb2 = report.Leaderboard("r2");
  EXPECT_EQ(lb2[0].first, "good");
}

TEST(BenchmarkReport, WritesCsvAndFormatsTable) {
  tsdata::Repository repo = SmallRepo();
  BenchmarkConfig c = FastConfig();
  c.datasets = {repo.names()[0]};
  auto report = PipelineRunner(&repo, c).Run().ValueOrDie();

  std::string table = report.FormatTable({"mae"});
  EXPECT_NE(table.find("dataset"), std::string::npos);
  EXPECT_NE(table.find("naive"), std::string::npos);

  std::string path =
      (std::filesystem::temp_directory_path() / "easytime_report.csv")
          .string();
  ASSERT_TRUE(report.WriteCsv(path).ok());
  auto doc = ReadCsvFile(path).ValueOrDie();
  EXPECT_EQ(doc.rows.size(), report.records.size());
  EXPECT_GE(doc.ColumnIndex("mae"), 0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace easytime::pipeline
