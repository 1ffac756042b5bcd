// Experiment S1 (DESIGN.md §3): one-click evaluation. A researcher adds a
// new method (here: a GBDT variant with custom hyperparameters) and runs it
// on every dataset through the facade with a single call, after editing
// only the configuration. Reports per-stage latency of the whole flow.

#include <cstdio>

#include "common/stopwatch.h"
#include "core/easytime.h"

using namespace easytime;

int main() {
  std::printf("== S1: one-click evaluation ==\n");

  Stopwatch boot;
  core::EasyTime::Options opt;
  opt.suite.univariate_per_domain = 2;
  opt.suite.multivariate_total = 2;
  auto system = core::EasyTime::Create(opt);
  if (!system.ok()) {
    std::fprintf(stderr, "%s\n", system.status().ToString().c_str());
    return 1;
  }
  double boot_s = boot.ElapsedSeconds();

  // "Edit the configuration file": a method entry with custom parameters.
  auto method_config =
      Json::Parse(R"({"num_trees": 30, "max_depth": 4})").ValueOrDie();

  Stopwatch click;
  auto report =
      (*system)->EvaluateMethodEverywhere("gbdt", method_config);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 1;
  }
  double click_s = click.ElapsedSeconds();

  std::printf("\nstage                                   seconds\n");
  std::printf("system bring-up (suite + KB seeding)    %7.2f\n", boot_s);
  std::printf("one-click method-on-all-datasets        %7.2f\n", click_s);
  std::printf("  -> %zu datasets, %zu ok, %.1f evals/s\n\n",
              report->records.size(), report->Successful().size(),
              static_cast<double>(report->records.size()) / click_s);

  // The results are immediately queryable — close the loop via Q&A.
  auto resp = (*system)->Ask("What is the average mae of gbdt?");
  if (!resp.ok()) {
    std::fprintf(stderr, "%s\n", resp.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", resp->answer.c_str());

  // Rolling reconfiguration: the "new forecasting scenario" path (§II-B).
  auto rolling_cfg = Json::Parse(R"({
    "methods": ["gbdt"],
    "evaluation": {"strategy": "rolling", "horizon": 12, "stride": 12,
                   "metrics": ["mae", "smape"]}
  })").ValueOrDie();
  Stopwatch rolling;
  auto rolling_report = (*system)->OneClickEvaluate(rolling_cfg);
  if (!rolling_report.ok()) {
    std::fprintf(stderr, "%s\n",
                 rolling_report.status().ToString().c_str());
    return 1;
  }
  std::printf("reconfigured to rolling forecasting: %zu pairs in %.2fs\n",
              rolling_report->records.size(), rolling.ElapsedSeconds());
  return 0;
}
