#pragma once

/// \file backtest.h
/// \brief Rolling-origin backtesting: the "live data" counterpart of the
/// one-shot evaluation protocol in evaluator.h. A backtest re-fits the
/// method at a ladder of forecast origins near the end of the series
/// (expanding or sliding training window), forecasts `horizon` steps from
/// each origin with prediction intervals, and aggregates accuracy
/// (MASE/sMAPE/...) plus interval coverage across origins.
///
/// Determinism contract: each origin is a pure function of
/// (values, config, origin index) — fresh forecaster, per-origin scaler fit
/// on that origin's training segment — and the aggregate is accumulated in
/// fixed index order after the fan-out joins. Output is therefore
/// bit-identical whether origins run on 1 thread or N (the same contract
/// the SQL group fan-out makes, DESIGN.md §11).
///
/// Resume contract: `BacktestHooks::on_origin` streams each finished origin
/// to the caller (the job layer appends it to the checkpoint store), and
/// `BacktestHooks::completed` splices checkpointed origins back in on
/// resume, skipping their re-evaluation without changing the report.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/json.h"
#include "common/result.h"
#include "eval/metrics.h"

namespace easytime::eval {

/// How the training window behaves as the origin advances.
enum class BacktestWindow {
  kExpanding,  ///< train on everything before the origin
  kSliding     ///< train on a fixed-width window ending at the origin
};

/// Parses "expanding" | "sliding".
easytime::Result<BacktestWindow> ParseBacktestWindow(const std::string& name);
const char* BacktestWindowName(BacktestWindow w);

/// \brief Rolling-origin protocol description. Origins are anchored to the
/// end of the series: the last origin forecasts the final `horizon` values,
/// earlier origins step back by `stride`.
struct BacktestConfig {
  std::string method = "theta";
  easytime::Json method_config = easytime::Json::Object();
  size_t origins = 8;    ///< number of forecast origins
  size_t horizon = 24;   ///< steps forecast from each origin
  size_t stride = 0;     ///< origin spacing; 0 = horizon (non-overlapping)
  BacktestWindow window = BacktestWindow::kExpanding;
  size_t window_size = 0;  ///< sliding width; 0 = the first origin's position
                           ///< (all origins then see equal-length trains)
  size_t min_train = 32;   ///< smallest admissible training segment
  double confidence = 0.95;  ///< prediction-interval level
  std::string scaler = "zscore";
  std::vector<std::string> metrics = {"mase", "smape", "mae"};
  uint64_t seed = 42;
  size_t sleep_ms = 0;  ///< artificial per-origin latency (tests/benches)

  static easytime::Result<BacktestConfig> FromJson(const easytime::Json& j);
  easytime::Json ToJson() const;
};

/// \brief One finished origin: metrics in the original scale plus interval
/// coverage (fraction of actuals inside [lower, upper]) and the mean
/// interval width. Round-trips through JSON for checkpoint records.
struct OriginEval {
  size_t index = 0;       ///< position in the origin ladder (0-based)
  size_t origin = 0;      ///< first forecast step (index into the series)
  size_t train_size = 0;  ///< training-segment length used at this origin
  std::map<std::string, double> metrics;
  double coverage = 0.0;
  double interval_width = 0.0;
  double fit_seconds = 0.0;

  easytime::Json ToJson() const;
  static easytime::Result<OriginEval> FromJson(const easytime::Json& j);
};

/// \brief The aggregate report: per-origin results in ladder order plus
/// unweighted means across origins (every origin evaluates the same number
/// of steps, so the mean is also the per-step mean).
struct BacktestReport {
  std::vector<OriginEval> origins;
  std::map<std::string, double> aggregate;
  double coverage = 0.0;
  double mean_interval_width = 0.0;
  size_t resumed = 0;  ///< origins spliced from a checkpoint, not re-run

  easytime::Json ToJson() const;
};

/// \brief Cooperative control surface, mirroring pipeline::RunHooks.
struct BacktestHooks {
  std::function<bool()> cancelled;                  ///< poll to abort
  std::function<void(size_t, size_t)> progress;     ///< (done, total)
  std::function<void(const OriginEval&)> on_origin; ///< checkpoint stream;
                                                    ///< invoked serially
  /// Origins already evaluated by a previous (crashed/killed) run, keyed by
  /// ladder index; spliced into the report without re-evaluation.
  const std::map<size_t, OriginEval>* completed = nullptr;
  easytime::Deadline deadline;
  /// Most origins evaluated at once, counting the calling thread: 0 = the
  /// whole process pool (GlobalThreadPool), 1 = strictly sequential.
  size_t max_threads = 0;
};

/// \brief Computes the origin ladder for a series of length \p n:
/// origin_i = n - horizon - (origins-1-i)*stride, i in [0, origins).
/// Fails with InvalidArgument when the earliest origin would leave fewer
/// than min_train training points (or fall before a sliding window).
easytime::Result<std::vector<size_t>> BacktestOrigins(
    size_t n, const BacktestConfig& config);

/// \brief Runs the rolling-origin backtest over a univariate sequence.
/// period_hint 0 means auto-detect. Fails fast on config/series mismatch;
/// per-origin method failures abort with the lowest-index error (origins
/// are homogeneous — a method that cannot fit one origin is misconfigured).
easytime::Result<BacktestReport> RunBacktest(const std::vector<double>& values,
                                             size_t period_hint,
                                             const BacktestConfig& config,
                                             const BacktestHooks& hooks = {});

}  // namespace easytime::eval
