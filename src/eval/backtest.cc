#include "eval/backtest.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "methods/registry.h"
#include "tsdata/characteristics.h"
#include "tsdata/scaler.h"

namespace easytime::eval {

easytime::Result<BacktestWindow> ParseBacktestWindow(const std::string& name) {
  std::string lower = ToLower(name);
  if (lower == "expanding") return BacktestWindow::kExpanding;
  if (lower == "sliding") return BacktestWindow::kSliding;
  return Status::InvalidArgument("unknown backtest window: " + name +
                                 " (expected 'expanding' or 'sliding')");
}

const char* BacktestWindowName(BacktestWindow w) {
  return w == BacktestWindow::kExpanding ? "expanding" : "sliding";
}

easytime::Result<BacktestConfig> BacktestConfig::FromJson(
    const easytime::Json& j) {
  BacktestConfig c;
  if (!j.is_object()) {
    return Status::InvalidArgument("backtest config must be a JSON object");
  }
  c.method = j.GetString("method", c.method);
  if (!methods::MethodRegistry::Global().Contains(c.method)) {
    return Status::NotFound("unknown method: " + c.method);
  }
  if (j.Has("method_config")) {
    if (!j.Get("method_config").is_object()) {
      return Status::InvalidArgument("method_config must be an object");
    }
    c.method_config = j.Get("method_config");
  }
  int64_t origins = j.GetInt("origins", static_cast<int64_t>(c.origins));
  if (origins <= 0) return Status::InvalidArgument("origins must be positive");
  c.origins = static_cast<size_t>(origins);
  int64_t horizon = j.GetInt("horizon", static_cast<int64_t>(c.horizon));
  if (horizon <= 0) return Status::InvalidArgument("horizon must be positive");
  c.horizon = static_cast<size_t>(horizon);
  int64_t stride = j.GetInt("stride", 0);
  if (stride < 0) return Status::InvalidArgument("stride must be >= 0");
  c.stride = static_cast<size_t>(stride);
  EASYTIME_ASSIGN_OR_RETURN(
      c.window, ParseBacktestWindow(j.GetString("window", "expanding")));
  int64_t ws = j.GetInt("window_size", 0);
  if (ws < 0) return Status::InvalidArgument("window_size must be >= 0");
  c.window_size = static_cast<size_t>(ws);
  int64_t min_train = j.GetInt("min_train", static_cast<int64_t>(c.min_train));
  if (min_train <= 0) {
    return Status::InvalidArgument("min_train must be positive");
  }
  c.min_train = static_cast<size_t>(min_train);
  c.confidence = j.GetDouble("confidence", c.confidence);
  if (!(c.confidence > 0.0 && c.confidence < 1.0)) {
    return Status::InvalidArgument("confidence must be in (0, 1)");
  }
  c.scaler = j.GetString("scaler", c.scaler);
  if (j.Has("metrics")) {
    const auto& m = j.Get("metrics");
    if (!m.is_array()) {
      return Status::InvalidArgument("metrics must be an array of names");
    }
    c.metrics.clear();
    for (const auto& item : m.items()) {
      if (!item.is_string()) {
        return Status::InvalidArgument("metric names must be strings");
      }
      if (!MetricRegistry::Global().Contains(item.AsString())) {
        return Status::NotFound("unknown metric: " + item.AsString());
      }
      c.metrics.push_back(item.AsString());
    }
    if (c.metrics.empty()) {
      return Status::InvalidArgument("metrics list must be non-empty");
    }
  }
  c.seed = static_cast<uint64_t>(j.GetInt("seed", 42));
  int64_t sleep_ms = j.GetInt("sleep_ms", 0);
  if (sleep_ms < 0 || sleep_ms > 5000) {
    return Status::InvalidArgument("sleep_ms must be in [0, 5000]");
  }
  c.sleep_ms = static_cast<size_t>(sleep_ms);
  return c;
}

easytime::Json BacktestConfig::ToJson() const {
  easytime::Json j = easytime::Json::Object();
  j.Set("method", method);
  j.Set("method_config", method_config);
  j.Set("origins", static_cast<int64_t>(origins));
  j.Set("horizon", static_cast<int64_t>(horizon));
  j.Set("stride", static_cast<int64_t>(stride));
  j.Set("window", BacktestWindowName(window));
  j.Set("window_size", static_cast<int64_t>(window_size));
  j.Set("min_train", static_cast<int64_t>(min_train));
  j.Set("confidence", confidence);
  j.Set("scaler", scaler);
  easytime::Json m = easytime::Json::Array();
  for (const auto& name : metrics) m.Append(name);
  j.Set("metrics", std::move(m));
  j.Set("seed", static_cast<int64_t>(seed));
  if (sleep_ms > 0) j.Set("sleep_ms", static_cast<int64_t>(sleep_ms));
  return j;
}

easytime::Json OriginEval::ToJson() const {
  easytime::Json j = easytime::Json::Object();
  j.Set("index", static_cast<int64_t>(index));
  j.Set("origin", static_cast<int64_t>(origin));
  j.Set("train_size", static_cast<int64_t>(train_size));
  easytime::Json m = easytime::Json::Object();
  for (const auto& [name, v] : metrics) m.Set(name, v);
  j.Set("metrics", std::move(m));
  j.Set("coverage", coverage);
  j.Set("interval_width", interval_width);
  j.Set("fit_seconds", fit_seconds);
  return j;
}

easytime::Result<OriginEval> OriginEval::FromJson(const easytime::Json& j) {
  if (!j.is_object()) {
    return Status::InvalidArgument("origin record must be an object");
  }
  OriginEval o;
  o.index = static_cast<size_t>(j.GetInt("index", 0));
  o.origin = static_cast<size_t>(j.GetInt("origin", 0));
  o.train_size = static_cast<size_t>(j.GetInt("train_size", 0));
  if (j.Has("metrics")) {
    const auto& m = j.Get("metrics");
    if (!m.is_object()) {
      return Status::InvalidArgument("origin metrics must be an object");
    }
    for (const auto& name : m.keys()) {
      const auto& v = m.Get(name);
      if (!v.is_number()) {
        return Status::InvalidArgument("origin metric values must be numbers");
      }
      o.metrics[name] = v.AsDouble();
    }
  }
  o.coverage = j.GetDouble("coverage", 0.0);
  o.interval_width = j.GetDouble("interval_width", 0.0);
  o.fit_seconds = j.GetDouble("fit_seconds", 0.0);
  return o;
}

easytime::Json BacktestReport::ToJson() const {
  easytime::Json j = easytime::Json::Object();
  easytime::Json arr = easytime::Json::Array();
  for (const auto& o : origins) arr.Append(o.ToJson());
  j.Set("origins", std::move(arr));
  easytime::Json agg = easytime::Json::Object();
  for (const auto& [name, v] : aggregate) agg.Set(name, v);
  j.Set("aggregate", std::move(agg));
  j.Set("coverage", coverage);
  j.Set("mean_interval_width", mean_interval_width);
  j.Set("resumed", static_cast<int64_t>(resumed));
  return j;
}

easytime::Result<std::vector<size_t>> BacktestOrigins(
    size_t n, const BacktestConfig& config) {
  size_t stride = config.stride == 0 ? config.horizon : config.stride;
  size_t span = config.horizon + (config.origins - 1) * stride;
  if (n < span + config.min_train) {
    return Status::InvalidArgument(
        "series too short for backtest: length " + std::to_string(n) +
        " < min_train " + std::to_string(config.min_train) + " + span " +
        std::to_string(span) + " (origins*stride+horizon)");
  }
  size_t first = n - span;
  if (config.window == BacktestWindow::kSliding && config.window_size > 0) {
    if (config.window_size < config.min_train) {
      return Status::InvalidArgument("window_size smaller than min_train");
    }
    if (config.window_size > first) {
      return Status::InvalidArgument(
          "window_size " + std::to_string(config.window_size) +
          " exceeds the earliest origin position " + std::to_string(first));
    }
  }
  std::vector<size_t> origins(config.origins);
  for (size_t i = 0; i < config.origins; ++i) origins[i] = first + i * stride;
  return origins;
}

namespace {

/// Evaluates one origin: deterministic function of (values, config, index).
easytime::Result<OriginEval> EvaluateOrigin(const std::vector<double>& values,
                                            size_t period_hint,
                                            const BacktestConfig& config,
                                            const std::vector<size_t>& origins,
                                            size_t index) {
  const size_t origin = origins[index];
  size_t train_begin = 0;
  if (config.window == BacktestWindow::kSliding) {
    // window_size 0 = "first origin's position": every origin then trains on
    // the same number of points, making metric drift across origins a pure
    // data effect rather than a train-size effect.
    size_t ws = config.window_size > 0 ? config.window_size : origins.front();
    train_begin = origin - ws;
  }
  std::vector<double> train(
      values.begin() + static_cast<long>(train_begin),
      values.begin() + static_cast<long>(origin));
  std::vector<double> actual(
      values.begin() + static_cast<long>(origin),
      values.begin() + static_cast<long>(origin + config.horizon));

  EASYTIME_ASSIGN_OR_RETURN(auto scaler, tsdata::MakeScaler(config.scaler));
  EASYTIME_RETURN_IF_ERROR(scaler->Fit(train));
  std::vector<double> train_scaled = scaler->Transform(train);

  methods::FitContext ctx;
  ctx.period_hint = period_hint;
  ctx.horizon = config.horizon;
  ctx.seed = config.seed;

  EASYTIME_ASSIGN_OR_RETURN(methods::ForecasterPtr model,
                            methods::MethodRegistry::Global().Create(
                                config.method, config.method_config));
  Stopwatch fit_watch;
  EASYTIME_ASSIGN_OR_RETURN(
      methods::IntervalForecast fc,
      model->ForecastWithIntervals(train_scaled, ctx, config.confidence));
  double fit_seconds = fit_watch.ElapsedSeconds();
  if (fc.point.size() != config.horizon) {
    return Status::Internal("forecaster returned wrong horizon length");
  }

  std::vector<double> point = scaler->Inverse(fc.point);
  std::vector<double> lower = scaler->Inverse(fc.lower);
  std::vector<double> upper = scaler->Inverse(fc.upper);
  for (size_t h = 0; h < point.size(); ++h) {
    // Affine scalers preserve interval order, but keep the invariant robust
    // to any future non-monotone scaler.
    if (lower[h] > upper[h]) std::swap(lower[h], upper[h]);
  }

  OriginEval out;
  out.index = index;
  out.origin = origin;
  out.train_size = train.size();
  out.fit_seconds = fit_seconds;

  MetricContext mctx;
  mctx.train = train;
  mctx.period = period_hint;
  EASYTIME_ASSIGN_OR_RETURN(out.metrics,
                            MetricRegistry::Global().ComputeAll(
                                config.metrics, actual, point, mctx));
  size_t inside = 0;
  double width = 0.0;
  for (size_t h = 0; h < actual.size(); ++h) {
    if (actual[h] >= lower[h] && actual[h] <= upper[h]) ++inside;
    width += upper[h] - lower[h];
  }
  out.coverage = static_cast<double>(inside) / actual.size();
  out.interval_width = width / actual.size();

  if (config.sleep_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(config.sleep_ms));
  }
  return out;
}

}  // namespace

easytime::Result<BacktestReport> RunBacktest(const std::vector<double>& values,
                                             size_t period_hint,
                                             const BacktestConfig& config,
                                             const BacktestHooks& hooks) {
  if (!methods::MethodRegistry::Global().Contains(config.method)) {
    return Status::NotFound("unknown method: " + config.method);
  }
  EASYTIME_ASSIGN_OR_RETURN(std::vector<size_t> origins,
                            BacktestOrigins(values.size(), config));
  if (period_hint == 0) period_hint = tsdata::DetectPeriod(values);

  const size_t total = origins.size();
  struct Slot {
    OriginEval eval;
    Status status = Status::OK();
    bool spliced = false;
    bool ran = false;
  };
  std::vector<Slot> slots(total);

  // Splice checkpointed origins in before the fan-out so resumed indices
  // never reach a worker.
  std::vector<size_t> todo;
  todo.reserve(total);
  size_t resumed = 0;
  for (size_t i = 0; i < total; ++i) {
    if (hooks.completed != nullptr) {
      auto it = hooks.completed->find(i);
      if (it != hooks.completed->end()) {
        slots[i].eval = it->second;
        slots[i].spliced = true;
        ++resumed;
        continue;
      }
    }
    todo.push_back(i);
  }

  std::mutex emit_mu;  // serializes on_origin / progress
  std::atomic<size_t> done{resumed};
  std::atomic<bool> cancelled{false};
  std::atomic<bool> deadline_hit{false};

  auto run_origin = [&](size_t t) {
    const size_t i = todo[t];
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
    auto res = EvaluateOrigin(values, period_hint, config, origins, i);
    Slot& slot = slots[i];
    if (res.ok()) {
      slot.eval = *res;
      slot.ran = true;
      std::lock_guard<std::mutex> lock(emit_mu);
      if (hooks.on_origin) hooks.on_origin(slot.eval);
      if (hooks.progress) {
        hooks.progress(done.fetch_add(1, std::memory_order_relaxed) + 1,
                       total);
      }
    } else {
      slot.status = res.status();
      if (slot.status.IsDeadlineExceeded()) {
        deadline_hit.store(true, std::memory_order_relaxed);
      }
    }
  };

  GlobalThreadPool().ParallelFor(todo.size(), run_origin, Schedule::kGuided,
                                 hooks.max_threads);

  if (cancelled.load(std::memory_order_relaxed)) {
    return Status::Cancelled("backtest cancelled");
  }
  if (deadline_hit.load(std::memory_order_relaxed)) {
    return Status::DeadlineExceeded("backtest exceeded its deadline");
  }
  // Homogeneous origins: any per-origin failure is a config/method problem,
  // reported deterministically as the lowest-index error.
  for (size_t i = 0; i < total; ++i) {
    if (!slots[i].status.ok()) {
      return slots[i].status.WithContext("backtest origin " +
                                         std::to_string(i));
    }
  }

  BacktestReport report;
  report.origins.reserve(total);
  report.resumed = resumed;
  // Fixed index-order accumulation: the aggregate is bit-identical no matter
  // how the fan-out interleaved.
  for (size_t i = 0; i < total; ++i) {
    const OriginEval& o = slots[i].eval;
    double n = static_cast<double>(i);
    for (const auto& name : config.metrics) {
      auto it = o.metrics.find(name);
      double v = it == o.metrics.end() ? 0.0 : it->second;
      double& slot = report.aggregate[name];
      slot = (slot * n + v) / (n + 1.0);
    }
    report.coverage = (report.coverage * n + o.coverage) / (n + 1.0);
    report.mean_interval_width =
        (report.mean_interval_width * n + o.interval_width) / (n + 1.0);
    report.origins.push_back(o);
  }
  return report;
}

}  // namespace easytime::eval
