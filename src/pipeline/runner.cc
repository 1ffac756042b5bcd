#include "pipeline/runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <deque>
#include <mutex>
#include <set>

#include "common/circuit_breaker.h"
#include "common/csv.h"
#include "common/fault.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "eval/metrics.h"
#include "methods/registry.h"

namespace easytime::pipeline {

std::string PairKey(const std::string& dataset, const std::string& method) {
  return dataset + '\n' + method;
}

easytime::Json RunRecord::ToJson() const {
  easytime::Json j = easytime::Json::Object();
  j.Set("dataset", dataset);
  j.Set("method", method);
  j.Set("strategy", strategy);
  j.Set("horizon", static_cast<int64_t>(horizon));
  j.Set("multivariate", multivariate);
  j.Set("domain", domain);
  easytime::Json m = easytime::Json::Object();
  for (const auto& [name, v] : metrics) m.Set(name, v);
  j.Set("metrics", std::move(m));
  j.Set("num_windows", static_cast<int64_t>(num_windows));
  j.Set("fit_seconds", fit_seconds);
  j.Set("forecast_seconds", forecast_seconds);
  j.Set("ok", status.ok());
  if (!status.ok()) {
    j.Set("code", static_cast<int64_t>(status.code()));
    j.Set("message", status.message());
  }
  return j;
}

easytime::Result<RunRecord> RunRecord::FromJson(const easytime::Json& j) {
  if (!j.is_object()) {
    return Status::ParseError("run record must be a JSON object");
  }
  RunRecord r;
  r.dataset = j.GetString("dataset", "");
  r.method = j.GetString("method", "");
  if (r.dataset.empty() || r.method.empty()) {
    return Status::ParseError("run record needs dataset and method names");
  }
  r.strategy = j.GetString("strategy", "");
  r.horizon = static_cast<size_t>(j.GetInt("horizon", 0));
  r.multivariate = j.GetBool("multivariate", false);
  r.domain = j.GetString("domain", "");
  if (j.Has("metrics") && j.Get("metrics").is_object()) {
    const easytime::Json& m = j.Get("metrics");
    for (const auto& name : m.keys()) {
      if (m.Get(name).is_number()) r.metrics[name] = m.Get(name).AsDouble();
    }
  }
  r.num_windows = static_cast<size_t>(j.GetInt("num_windows", 0));
  r.fit_seconds = j.GetDouble("fit_seconds", 0.0);
  r.forecast_seconds = j.GetDouble("forecast_seconds", 0.0);
  if (!j.GetBool("ok", true)) {
    int64_t code = j.GetInt("code", static_cast<int64_t>(StatusCode::kInternal));
    if (code <= 0 || code >= kNumStatusCodes) {
      code = static_cast<int64_t>(StatusCode::kInternal);
    }
    r.status = Status(static_cast<StatusCode>(code),
                      j.GetString("message", "checkpointed failure"));
  }
  return r;
}

std::vector<const RunRecord*> BenchmarkReport::Successful() const {
  std::vector<const RunRecord*> out;
  for (const auto& r : records) {
    if (r.status.ok()) out.push_back(&r);
  }
  return out;
}

std::vector<std::pair<std::string, double>> BenchmarkReport::Leaderboard(
    const std::string& metric) const {
  std::map<std::string, std::pair<double, size_t>> acc;  // method -> (sum, n)
  for (const auto& r : records) {
    if (!r.status.ok()) continue;
    auto it = r.metrics.find(metric);
    if (it == r.metrics.end() || !std::isfinite(it->second)) continue;
    auto& slot = acc[r.method];
    slot.first += it->second;
    slot.second += 1;
  }
  std::vector<std::pair<std::string, double>> out;
  for (const auto& [method, sum_n] : acc) {
    out.emplace_back(method, sum_n.first / static_cast<double>(sum_n.second));
  }
  bool higher = eval::MetricRegistry::Global().HigherIsBetter(metric);
  std::sort(out.begin(), out.end(), [higher](const auto& a, const auto& b) {
    return higher ? a.second > b.second : a.second < b.second;
  });
  return out;
}

std::string BenchmarkReport::FormatTable(
    const std::vector<std::string>& metric_names) const {
  std::vector<std::string> header = {"dataset", "method", "strategy",
                                     "horizon", "status"};
  for (const auto& m : metric_names) header.push_back(m);
  std::vector<std::vector<std::string>> rows;
  for (const auto& r : records) {
    // Same status text as WriteCsv, so grepping a failure message works on
    // either surface.
    std::vector<std::string> row = {r.dataset, r.method, r.strategy,
                                    std::to_string(r.horizon),
                                    r.status.ok() ? "ok" : r.status.ToString()};
    for (const auto& m : metric_names) {
      auto it = r.metrics.find(m);
      row.push_back(it != r.metrics.end() ? FormatDouble(it->second, 4) : "-");
    }
    rows.push_back(std::move(row));
  }
  return easytime::FormatTable(header, rows);
}

easytime::Status BenchmarkReport::WriteCsv(const std::string& path) const {
  // Collect the union of metric names for a stable header. A set gives the
  // sorted order directly and avoids the quadratic linear-scan dedup.
  std::set<std::string> name_set;
  for (const auto& r : records) {
    for (const auto& [name, _] : r.metrics) name_set.insert(name);
  }
  std::vector<std::string> metric_names(name_set.begin(), name_set.end());

  CsvDocument doc;
  doc.rows.reserve(records.size());
  doc.header = {"dataset",  "method",      "strategy",
                "horizon",  "multivariate", "domain",
                "windows",  "fit_seconds", "forecast_seconds", "status"};
  for (const auto& m : metric_names) doc.header.push_back(m);
  for (const auto& r : records) {
    std::vector<std::string> row = {
        r.dataset,
        r.method,
        r.strategy,
        std::to_string(r.horizon),
        r.multivariate ? "1" : "0",
        r.domain,
        std::to_string(r.num_windows),
        FormatDouble(r.fit_seconds, 6),
        FormatDouble(r.forecast_seconds, 6),
        r.status.ok() ? "ok" : r.status.ToString()};
    for (const auto& m : metric_names) {
      auto it = r.metrics.find(m);
      row.push_back(it != r.metrics.end() ? FormatDouble(it->second, 8) : "");
    }
    doc.rows.push_back(std::move(row));
  }
  return WriteCsvFile(path, doc);
}

PipelineRunner::PipelineRunner(const tsdata::Repository* repo,
                               BenchmarkConfig config)
    : repo_(repo), config_(std::move(config)) {}

easytime::Result<BenchmarkReport> PipelineRunner::Run() const {
  return Run(RunHooks{});
}

easytime::Result<BenchmarkReport> PipelineRunner::Run(
    const RunHooks& hooks) const {
  if (repo_ == nullptr) {
    return Status::InvalidArgument("repository must not be null");
  }
  if (!config_.log_file.empty()) {
    Logging::SetLogFile(config_.log_file);
  }

  // Resolve datasets.
  std::vector<const tsdata::Dataset*> datasets;
  if (config_.datasets.empty()) {
    datasets = repo_->All();
  } else {
    for (const auto& name : config_.datasets) {
      EASYTIME_ASSIGN_OR_RETURN(const tsdata::Dataset* ds, repo_->Get(name));
      datasets.push_back(ds);
    }
  }
  if (datasets.empty()) {
    return Status::InvalidArgument("no datasets to evaluate");
  }

  // Resolve methods.
  std::vector<MethodSpec> specs = config_.methods;
  if (specs.empty()) {
    for (const auto& name : methods::MethodRegistry::Global().Names()) {
      specs.push_back(MethodSpec{name, easytime::Json::Object()});
    }
  }

  EASYTIME_LOG(Info) << "pipeline: " << specs.size() << " methods x "
                     << datasets.size() << " datasets, strategy="
                     << eval::StrategyName(config_.eval.strategy)
                     << ", horizon=" << config_.eval.horizon;

  struct Task {
    const tsdata::Dataset* dataset;
    const MethodSpec* spec;
    size_t spec_index;
  };
  std::vector<Task> tasks;
  tasks.reserve(datasets.size() * specs.size());
  for (const auto* ds : datasets) {
    for (size_t s = 0; s < specs.size(); ++s) {
      tasks.push_back({ds, &specs[s], s});
    }
  }

  BenchmarkReport report;
  report.records.resize(tasks.size());
  eval::Evaluator evaluator(config_.eval);

  // Per-method circuit breaker: after breaker_threshold consecutive failures
  // of one forecaster its remaining pairs are skipped (recorded Unavailable)
  // instead of burning the rest of the run. With a cooldown configured, a
  // probe pair is let through once the cooldown elapses (half-open) and its
  // outcome closes or re-trips the breaker. "Consecutive" is counted over
  // completion order, which is approximate under the parallel fan-out.
  CircuitBreaker::Options breaker_opt;
  breaker_opt.threshold = static_cast<int>(config_.breaker_threshold);
  breaker_opt.cooldown_ms = config_.breaker_cooldown_ms;
  std::deque<CircuitBreaker> breakers;  // deque: breakers are not movable
  for (size_t s = 0; s < specs.size(); ++s) breakers.emplace_back(breaker_opt);
  const int breaker_threshold = breaker_opt.threshold;

  Stopwatch watch;
  std::mutex log_mu;
  std::atomic<size_t> done{0};
  std::atomic<bool> cancelled{false};
  std::atomic<bool> deadline_hit{false};
  const size_t total = tasks.size();
  auto run_pair = [&](size_t i) {
    if (cancelled.load(std::memory_order_relaxed) ||
        (hooks.cancelled && hooks.cancelled())) {
      cancelled.store(true, std::memory_order_relaxed);
      return;
    }
    if (deadline_hit.load(std::memory_order_relaxed) ||
        hooks.deadline.expired()) {
      deadline_hit.store(true, std::memory_order_relaxed);
      return;
    }
    const Task& task = tasks[i];
    RunRecord& rec = report.records[i];
    rec.dataset = task.dataset->name();
    rec.method = task.spec->name;
    rec.strategy = eval::StrategyName(config_.eval.strategy);
    rec.horizon = config_.eval.horizon;
    rec.multivariate = task.dataset->multivariate();
    rec.domain = tsdata::DomainName(task.dataset->domain());

    // Crash-safe resume: splice in a checkpointed record instead of
    // re-evaluating the pair.
    if (hooks.completed != nullptr) {
      auto it = hooks.completed->find(PairKey(rec.dataset, rec.method));
      if (it != hooks.completed->end()) {
        rec = it->second;
        if (hooks.progress) {
          hooks.progress(done.fetch_add(1, std::memory_order_relaxed) + 1,
                         total);
        }
        return;
      }
    }

    CircuitBreaker& breaker = breakers[task.spec_index];
    if (!breaker.Allow(std::chrono::steady_clock::now())) {
      rec.status = Status::Unavailable(
          "circuit breaker open for method '" + rec.method + "' after " +
          std::to_string(breaker_threshold) +
          " consecutive failures; pair skipped");
      if (hooks.progress) {
        hooks.progress(done.fetch_add(1, std::memory_order_relaxed) + 1,
                       total);
      }
      return;
    }

    Status injected;  // blast-radius containment: an injected fault fails
    if (FaultRegistry::AnyArmed()) {  // only this pair, never the run
      injected = FaultRegistry::Global().Check("pipeline.pair");
    }
    if (!injected.ok()) {
      rec.status = injected;
    } else {
      auto res = evaluator.EvaluateDataset(task.spec->name, task.spec->config,
                                           *task.dataset, hooks.deadline);
      if (res.ok()) {
        rec.metrics = res->metrics;
        rec.num_windows = res->num_windows;
        rec.fit_seconds = res->fit_seconds;
        rec.forecast_seconds = res->forecast_seconds;
        rec.status = Status::OK();
      } else {
        rec.status = res.status();
      }
    }
    if (rec.status.IsDeadlineExceeded()) {
      deadline_hit.store(true, std::memory_order_relaxed);
    }
    if (!rec.status.ok()) {
      std::lock_guard<std::mutex> lock(log_mu);
      EASYTIME_LOG(Warning) << rec.method << " on " << rec.dataset
                            << " failed: " << rec.status.ToString();
    }
    if (breaker_threshold > 0 && !rec.status.IsDeadlineExceeded()) {
      if (rec.status.ok()) {
        breaker.RecordSuccess();
      } else {
        breaker.RecordFailure(std::chrono::steady_clock::now());
        if (breaker.ConsumeTripEvent()) {
          std::lock_guard<std::mutex> lock(log_mu);
          EASYTIME_LOG(Warning)
              << "circuit breaker tripped for method '" << rec.method
              << "' after " << breaker_threshold << " consecutive failures";
        }
      }
    }
    // Deadline-expired pairs are not reported: they were not evaluated, and
    // a resume should run them for real.
    if (hooks.on_record && !rec.status.IsDeadlineExceeded()) {
      hooks.on_record(rec);
    }
    if (hooks.progress) {
      hooks.progress(done.fetch_add(1, std::memory_order_relaxed) + 1, total);
    }
  };
  // Guided schedule: per-pair costs are heavily skewed (a deep method on a
  // long dataset vs naive on a short one), so decreasing chunk sizes keep
  // the tail balanced. num_threads caps the pairs in flight (0 = the pool).
  GlobalThreadPool().ParallelFor(tasks.size(), run_pair, Schedule::kGuided,
                                 config_.num_threads);
  if (cancelled.load(std::memory_order_relaxed)) {
    return Status::Cancelled("pipeline run cancelled");
  }
  if (deadline_hit.load(std::memory_order_relaxed)) {
    return Status::DeadlineExceeded("pipeline run exceeded its deadline");
  }
  report.wall_seconds = watch.ElapsedSeconds();

  EASYTIME_LOG(Info) << "pipeline finished: " << report.Successful().size()
                     << "/" << report.records.size() << " pairs ok in "
                     << FormatDouble(report.wall_seconds, 2) << "s";

  if (!config_.output_csv.empty()) {
    EASYTIME_RETURN_IF_ERROR(report.WriteCsv(config_.output_csv));
  }
  return report;
}

}  // namespace easytime::pipeline
