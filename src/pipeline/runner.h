#pragma once

/// \file runner.h
/// \brief The benchmark pipeline: "standardized dataset processing and
/// splitting, model training and testing, as well as unified
/// post-processing". Fans (method x dataset) pairs across the process pool,
/// logs progress, and produces the result table that seeds the benchmark
/// knowledge base.

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/json.h"
#include "common/result.h"
#include "pipeline/benchmark_config.h"
#include "tsdata/repository.h"

namespace easytime::pipeline {

/// One (method, dataset) evaluation outcome.
struct RunRecord {
  std::string dataset;
  std::string method;
  std::string strategy;
  size_t horizon = 0;
  bool multivariate = false;
  std::string domain;
  std::map<std::string, double> metrics;
  size_t num_windows = 0;
  double fit_seconds = 0.0;
  double forecast_seconds = 0.0;
  easytime::Status status;  ///< per-pair failure is recorded, not fatal

  /// Serializes for the job checkpoint (crash-safe evaluation resume).
  easytime::Json ToJson() const;
  static easytime::Result<RunRecord> FromJson(const easytime::Json& j);
};

/// Checkpoint/resume identity of a (dataset, method) pair.
std::string PairKey(const std::string& dataset, const std::string& method);

/// \brief The full pipeline output.
struct BenchmarkReport {
  std::vector<RunRecord> records;
  double wall_seconds = 0.0;

  /// Records that completed successfully.
  std::vector<const RunRecord*> Successful() const;

  /// \brief Leaderboard: methods ranked by mean \p metric over successful
  /// records (ascending unless the metric is higher-is-better).
  std::vector<std::pair<std::string, double>> Leaderboard(
      const std::string& metric) const;

  /// Renders the per-pair result table as aligned ASCII.
  std::string FormatTable(const std::vector<std::string>& metric_names) const;

  /// Writes records to CSV (the reporting layer's persistent output).
  easytime::Status WriteCsv(const std::string& path) const;
};

/// \brief Observation and control hooks for a pipeline run. Both callbacks
/// are invoked from worker threads and must be thread-safe; either may be
/// left empty.
struct RunHooks {
  /// Polled before each (method, dataset) pair; returning true skips the
  /// remaining pairs and makes Run return Status::Cancelled. The serving
  /// layer wires this to a job's cancellation flag.
  std::function<bool()> cancelled;
  /// Called after each pair completes with (pairs done, pairs total).
  std::function<void(size_t, size_t)> progress;
  /// Wall-clock budget for the whole run. Once expired, remaining pairs are
  /// abandoned and Run returns Status::DeadlineExceeded. Defaults to
  /// infinite.
  easytime::Deadline deadline;
  /// Called with each freshly evaluated record (worker thread — must be
  /// thread-safe). The serving layer appends these to the job checkpoint.
  /// Not invoked for records spliced in from `completed`.
  std::function<void(const RunRecord&)> on_record;
  /// Previously completed records keyed by PairKey(dataset, method);
  /// matching pairs are copied into the report instead of re-evaluated —
  /// the crash-safe resume path. Not owned; may be null.
  const std::map<std::string, RunRecord>* completed = nullptr;
};

/// \brief Executes a benchmark configuration against a dataset repository.
class PipelineRunner {
 public:
  PipelineRunner(const tsdata::Repository* repo, BenchmarkConfig config);

  /// Runs all (method, dataset) pairs; individual failures are recorded in
  /// their RunRecord::status rather than aborting the run.
  easytime::Result<BenchmarkReport> Run() const;

  /// Run with observation/control hooks. A cancelled run returns
  /// Status::Cancelled, an expired deadline Status::DeadlineExceeded — no
  /// partial report is produced (checkpointing via hooks.on_record is how
  /// partial progress survives).
  easytime::Result<BenchmarkReport> Run(const RunHooks& hooks) const;

 private:
  const tsdata::Repository* repo_;
  BenchmarkConfig config_;
};

}  // namespace easytime::pipeline
