#pragma once

/// \file benchmark_config.h
/// \brief The benchmark "configuration file". One-click evaluation (paper
/// §II-B) means: edit this config — datasets, methods, strategy, horizons,
/// metrics — and run the pipeline; everything else is standardized.

#include <string>
#include <vector>

#include "common/json.h"
#include "common/result.h"
#include "eval/evaluator.h"

namespace easytime::pipeline {

/// One method entry: registry name plus its hyperparameter config.
struct MethodSpec {
  std::string name;
  easytime::Json config = easytime::Json::Object();
};

/// \brief Everything a benchmark run needs.
struct BenchmarkConfig {
  /// Dataset names to evaluate on; empty = all datasets in the repository.
  std::vector<std::string> datasets;
  /// Methods to evaluate; empty = every registered method.
  std::vector<MethodSpec> methods;
  /// The evaluation protocol.
  eval::EvalConfig eval;
  /// Most (method, dataset) pairs evaluated at once, counting the calling
  /// thread: 0 = the whole process pool (GlobalThreadPool, sized by
  /// EASYTIME_NUM_THREADS), 1 = strictly sequential on the caller.
  size_t num_threads = 0;
  /// Optional path for the run log ("" = stderr).
  std::string log_file;
  /// Optional CSV output path for the result table ("" = don't write).
  std::string output_csv;
  /// Consecutive failures of one method before its circuit breaker opens and
  /// the method's remaining pairs are skipped (recorded Unavailable).
  /// 0 disables the breaker.
  size_t breaker_threshold = 5;
  /// How long a tripped method's breaker stays open before one probe pair is
  /// let through (half-open): a successful probe closes the breaker, a
  /// failed one re-trips it for another cooldown. 0 = stay open for the
  /// whole run.
  double breaker_cooldown_ms = 0.0;

  /// \brief Parses the JSON configuration-file schema:
  /// \code{.json}
  /// {
  ///   "datasets": ["traffic_u0", ...],
  ///   "methods": [{"name": "theta"}, {"name": "gbdt", "config": {...}}],
  ///   "evaluation": {"strategy": "rolling", "horizon": 24, ...},
  ///   "num_threads": 4,
  ///   "output_csv": "results.csv"
  /// }
  /// \endcode
  static easytime::Result<BenchmarkConfig> FromJson(const easytime::Json& j);

  /// Parses a config file from disk.
  static easytime::Result<BenchmarkConfig> FromFile(const std::string& path);

  easytime::Json ToJson() const;
};

}  // namespace easytime::pipeline
