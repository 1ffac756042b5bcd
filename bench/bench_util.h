#pragma once

/// \file bench_util.h
/// \brief Shared setup for the benchmark harnesses: the candidate method
/// set, suite construction, knowledge seeding, and trial summaries.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "eval/evaluator.h"
#include "knowledge/knowledge_base.h"
#include "methods/registry.h"
#include "tsdata/repository.h"

namespace easytime::benchutil {

/// The fast candidate set used by the recommendation/ensemble experiments
/// (spans all three families; omits the slow deep models where wall time
/// matters more than coverage).
inline std::vector<std::string> FastCandidates() {
  return {"naive", "seasonal_naive", "drift",  "ses",
          "holt",  "holt_winters_add", "theta", "ar",
          "lag_linear", "dlinear",    "knn",   "gbdt"};
}

/// Every registered method (incl. deep models) for the full leaderboard.
inline std::vector<std::string> AllMethods() {
  return methods::MethodRegistry::Global().Names();
}

/// Standard seeding protocol used across harnesses.
inline eval::EvalConfig SeedProtocol(size_t horizon = 24) {
  eval::EvalConfig cfg;
  cfg.strategy = eval::Strategy::kFixed;
  cfg.horizon = horizon;
  cfg.metrics = {"mae", "rmse", "smape", "mase"};
  return cfg;
}

/// Builds + seeds a knowledge base, exiting the process on failure (benches
/// have no caller to propagate to).
inline knowledge::SeededKnowledge MustSeed(
    size_t uni_per_domain, size_t multivariate,
    const std::vector<std::string>& methods, size_t horizon = 24,
    uint64_t seed = 7) {
  tsdata::SuiteSpec suite;
  suite.univariate_per_domain = uni_per_domain;
  suite.multivariate_total = multivariate;
  suite.seed = seed;
  auto seeded = knowledge::SeedKnowledge(suite, SeedProtocol(horizon), methods);
  if (!seeded.ok()) {
    std::fprintf(stderr, "seeding failed: %s\n",
                 seeded.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(*seeded);
}

/// Mean MAE of a method over a dataset under the standard protocol;
/// +inf when the evaluation fails.
inline double EvalMae(const std::string& method, const tsdata::Dataset& ds,
                      size_t horizon = 24) {
  eval::Evaluator evaluator(SeedProtocol(horizon));
  auto res = evaluator.EvaluateDataset(method, Json::Object(), ds);
  return res.ok() ? res->metrics.at("mae") : 1e300;
}

/// Median and spread (min, max) of repeated trials of one number.
inline Json TrialSummary(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  Json j = Json::Object();
  j.Set("trials", static_cast<int64_t>(samples.size()));
  if (samples.empty()) return j;
  const size_t n = samples.size();
  j.Set("median", n % 2 ? samples[n / 2]
                        : (samples[n / 2 - 1] + samples[n / 2]) / 2.0);
  j.Set("min", samples.front());
  j.Set("max", samples.back());
  return j;
}

/// Records the core count and build type next to a bench's numbers.
inline void SetBuildInfo(Json* out) {
  out->Set("nproc",
           static_cast<int64_t>(std::thread::hardware_concurrency()));
#ifdef EASYTIME_BUILD_TYPE
  out->Set("build_type", EASYTIME_BUILD_TYPE);
#endif
}

}  // namespace easytime::benchutil
