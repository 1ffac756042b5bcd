#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "methods/registry.h"

namespace easytime::serve {

namespace {

bool IsFastEndpoint(const std::string& endpoint) {
  return endpoint == "forecast" || endpoint == "recommend" ||
         endpoint == "ask" || endpoint == "sql" || endpoint == "append";
}

/// The numbers in JSON array \p arr; TypeError(\p not_a_number) at the
/// first element that is not one.
easytime::Result<std::vector<double>> ReadNumbers(const easytime::Json& arr,
                                                  const char* not_a_number) {
  std::vector<double> values;
  values.reserve(arr.size());
  for (const auto& v : arr.items()) {
    if (!v.is_number()) return Status::TypeError(not_a_number);
    values.push_back(v.AsDouble());
  }
  return values;
}

/// {"recommendations": [{"method": …, "score": …}, …]}, best first.
easytime::Json RecommendationsJson(const ensemble::Recommendation& rec) {
  easytime::Json items = easytime::Json::Array();
  for (const auto& [name, score] : rec) {
    easytime::Json item = easytime::Json::Object();
    item.Set("method", name);
    item.Set("score", score);
    items.Append(std::move(item));
  }
  easytime::Json result = easytime::Json::Object();
  result.Set("recommendations", std::move(items));
  return result;
}

}  // namespace

ForecastServer::ForecastServer(core::EasyTime* system, Options options)
    : system_(system),
      options_(options),
      cache_(ResultCache::Options{options.cache_capacity,
                                  options.cache_ttl_seconds}),
      jobs_(system, JobManager::Options{options.evaluate_queue_capacity,
                                        options.checkpoint_dir,
                                        options.evaluate_concurrency}) {}

ForecastServer::ForecastServer(core::EasyTime* system)
    : ForecastServer(system, Options()) {}

ForecastServer::~ForecastServer() { Stop(); }

void ForecastServer::Start() {
  if (running_.exchange(true)) return;
  AdmissionController::Options admission_opts;
  admission_opts.queue_capacity = options_.fast_lane_capacity;
  admission_opts.workers = std::max<size_t>(1, options_.fast_lane_workers);
  admission_opts.weights = options_.endpoint_weights;
  admission_ = std::make_unique<AdmissionController>(admission_opts);
  jobs_.Start();
  if (options_.warm_cache && options_.cache_capacity > 0 &&
      system_->restored_from_store()) {
    WarmCache();
  }
  accepting_.store(true);
}

void ForecastServer::WarmCache() {
  // Default-parameter recommend responses for every stored dataset; the
  // canonical key matches what a {"dataset": name} request computes, so the
  // first post-restart recommends are cache hits. Warmed entries carry the
  // dataset tag like organic ones — an append right after restart must drop
  // them too.
  size_t warmed = 0;
  for (const auto& meta : system_->knowledge().datasets()) {
    easytime::Json params = easytime::Json::Object();
    params.Set("dataset", meta.name);
    const uint64_t stamp = cache_.Stamp(meta.name);
    auto result = ExecuteRecommend(params);
    if (!result.ok()) continue;
    cache_.Insert(CanonicalKey("recommend", params), result->Dump(),
                  meta.name, stamp);
    ++warmed;
  }
  EASYTIME_LOG(Info) << "serve: warmed recommend cache for " << warmed
                     << " stored datasets";
}

void ForecastServer::Stop() {
  if (!running_.load() || stopped_.exchange(true)) return;
  accepting_.store(false);
  // Drain order matters: DrainAll grants every request waiting for a worker
  // slot, makes later acquires refuse (a request racing this Stop is
  // answered Unavailable) and returns once every granted request has been
  // answered; then the async lane drains.
  if (admission_) admission_->DrainAll();
  jobs_.Shutdown();
  running_.store(false);
}

void ForecastServer::RegisterControlEndpoint(const std::string& name,
                                             ControlFn fn) {
  control_endpoints_[name] = std::move(fn);
}

std::string ForecastServer::HandleLine(const std::string& line) {
  int64_t error_id = -1;
  auto parsed = ParseRequest(line, options_.max_request_bytes, &error_id);
  if (!parsed.ok()) {
    RecordStats("_protocol", false, false, false, 0.0);
    return MakeErrorResponse(error_id, parsed.status()).Dump();
  }
  return Dispatch(std::move(*parsed));
}

easytime::Result<easytime::Json> ForecastServer::Call(
    const std::string& endpoint, const easytime::Json& params) {
  Request req;
  req.endpoint = endpoint;
  req.params = params;
  // Dispatch answers with the wire line; only this typed API wants a tree.
  return ParseResponse(Dispatch(std::move(req)));
}

easytime::Result<easytime::Json> ForecastServer::CallWithRetry(
    const std::string& endpoint, const easytime::Json& params,
    const RetryPolicy& policy) {
  return RetryCall(policy,
                   [&]() { return Call(endpoint, params); });
}

/// What one request came to. Route computes it; Dispatch, its one exit,
/// records the stats and builds the reply line from it.
struct ForecastServer::Outcome {
  /// A control-plane answer: the payload, or the status it failed with.
  static Outcome Of(easytime::Result<easytime::Json> r) {
    if (!r.ok()) return {.status = r.status()};
    return {.result = std::move(*r)};
  }

  // Every member has an initializer, so each return names only the members
  // that differ from an OK control-plane answer.
  easytime::Status status{};  ///< not OK: the reply is the error envelope
  easytime::Json result{};    ///< the OK payload, unless cache_hit
  bool rejected = false;      ///< shed, or refused while not accepting
  bool protocol_error = false;  ///< an unknown endpoint: counted "_protocol"
  /// A fast-lane answer: the reply splices the serialized result with
  /// "cached"/"seconds" instead of dumping MakeOkResponse.
  bool spliced = false;
  bool cache_hit = false;
  std::string cached{};       ///< a hit's payload bytes, spliced as stored
  std::string fill_key{};     ///< non-empty: cache the payload under it
  std::string fill_dataset{}; ///< the stored dataset the payload reads
  uint64_t fill_stamp = 0;    ///< fill_dataset's stamp read before executing
  /// Dies with the outcome, after the stats record and the cache fill, so
  /// Stop()'s DrainAll covers the whole request.
  AdmissionController::Ticket ticket{};
};

std::string ForecastServer::Dispatch(Request req) {
  Stopwatch watch;
  Outcome out = Route(req);
  const double secs = watch.ElapsedSeconds();
  static const std::string kProtocol = "_protocol";
  RecordStats(out.protocol_error ? kProtocol : req.endpoint, out.status.ok(),
              out.rejected, out.cache_hit, secs);
  if (!out.status.ok()) return MakeErrorResponse(req.id, out.status).Dump();
  if (!out.spliced) return MakeOkResponse(req.id, std::move(out.result)).Dump();
  // A hit is bytes in, bytes out: the cached result goes into the reply
  // line as stored, so a hit formats no numbers. A miss dumps its result
  // once: the same bytes are the reply's "result" and the cache fill.
  std::string bytes = out.cache_hit ? std::move(out.cached) : out.result.Dump();
  std::string line = SpliceOkResponseLine(req.id, bytes, out.cache_hit, secs);
  if (!out.fill_key.empty()) {
    cache_.Insert(out.fill_key, std::move(bytes), out.fill_dataset,
                  out.fill_stamp);
  }
  return line;
}

ForecastServer::Outcome ForecastServer::Route(const Request& req) {
  const std::string& endpoint = req.endpoint;
  if (FaultRegistry::AnyArmed()) {
    Status fs = FaultRegistry::Global().Check("serve.dispatch");
    if (!fs.ok()) return {.status = fs};
  }
  // Parsed up front so an already-absurd budget is rejected before any
  // queueing.
  easytime::Result<easytime::Deadline> deadline = ParseDeadline(req.params);
  if (!deadline.ok()) return {.status = deadline.status()};

  // ----- control plane: always served inline, even under load -------------
  if (endpoint == "ping") {
    easytime::Json result = easytime::Json::Object();
    result.Set("pong", true);
    return {.result = std::move(result)};
  }
  if (endpoint == "stats") return {.result = StatsJson()};
  if (endpoint == "flush_cache") {
    // The drop-everything escape hatch (DESIGN.md §13): appends invalidate
    // per-dataset tags, but an operator who distrusts the cache wholesale
    // can still nuke it. Inline like the rest of the control plane.
    const size_t dropped = cache_.size();
    cache_.Clear();
    easytime::Json result = easytime::Json::Object();
    result.Set("flushed", static_cast<int64_t>(dropped));
    return {.result = std::move(result)};
  }
  if (endpoint == "job_status" || endpoint == "cancel") {
    if (!req.params.Has("job") || !req.params.Get("job").is_number()) {
      return {.status = Status::InvalidArgument("missing numeric \"job\" id")};
    }
    uint64_t job_id = static_cast<uint64_t>(req.params.Get("job").AsInt());
    return Outcome::Of(endpoint == "cancel" ? jobs_.Cancel(job_id)
                                            : jobs_.StatusJson(job_id));
  }
  if (auto it = control_endpoints_.find(endpoint);
      it != control_endpoints_.end()) {
    // Registered extensions (the shard worker's replication plane) ride the
    // inline control path: they must answer even when the fast lanes shed.
    return Outcome::Of(it->second(req.params));
  }

  // ----- async lane: evaluation + backtest jobs ----------------------------
  if (endpoint == "evaluate" || endpoint == "backtest") {
    if (!accepting_.load()) {
      return {.status = Status::Unavailable("server is not accepting"),
              .rejected = true};
    }
    easytime::Json job_config = req.params;
    // The endpoint picks the job type; an explicit "type" in the params
    // must agree (a backtest config submitted to "evaluate" is a client
    // bug, not something to silently reinterpret).
    if (job_config.Has("type") &&
        job_config.GetString("type", "") != endpoint) {
      return {.status = Status::InvalidArgument(
                  "job \"type\" conflicts with the \"" + endpoint +
                  "\" endpoint")};
    }
    job_config.Set("type", endpoint);
    auto job_id = jobs_.Submit(job_config);
    if (!job_id.ok()) {
      return {.status = job_id.status(),
              .rejected = job_id.status().IsUnavailable()};
    }
    easytime::Json result = easytime::Json::Object();
    result.Set("job", static_cast<int64_t>(*job_id));
    result.Set("state", "queued");
    return {.result = std::move(result)};
  }

  // ----- fast lane ---------------------------------------------------------
  if (!IsFastEndpoint(endpoint)) {
    return {.status = Status::NotFound("unknown endpoint: " + endpoint),
            .protocol_error = true};
  }
  if (!accepting_.load() || !running_.load()) {
    return {.status = Status::Unavailable("server is not accepting requests"),
            .rejected = true};
  }
  Outcome out{.spliced = true};
  // Only answers read from a stored dataset are cached. An upload does not
  // repeat: its key would only cost number formatting and its entry evict
  // stored-dataset ones. ResolveSeries prefers "values", so a request that
  // names a dataset and uploads too reads no stored series. ask is not
  // cached: follow-up questions depend on conversation history.
  if (endpoint == "forecast" || endpoint == "recommend") {
    if (!req.params.Has("values")) {
      out.fill_dataset = req.params.GetString("dataset", "");
    }
    if (out.fill_dataset.empty()) {
      cache_.CountMiss();  // hits + misses count every forecast/recommend
    } else {
      std::string key = CanonicalKey(endpoint, req.params);
      if (auto hit = cache_.Lookup(key)) {
        return {.spliced = true, .cache_hit = true, .cached = std::move(*hit)};
      }
      // Read before the request snapshots its data: an append that lands
      // while it computes moves the stamp, and the fill is dropped.
      out.fill_stamp = cache_.Stamp(out.fill_dataset);
      out.fill_key = std::move(key);
    }
  }

  // Per-endpoint admission: claim a weighted queue slot. A class over its
  // reservation with no shared headroom left is shed here, so a burst on
  // one endpoint cannot starve the others.
  out.ticket = admission_->TryAdmit(endpoint);
  if (!out.ticket) {
    out.status = Status::Unavailable(
        "endpoint \"" + endpoint +
        "\" is over its admission quota; retry later");
    out.rejected = true;
    return out;
  }
  if (FaultRegistry::AnyArmed()) {
    out.status = FaultRegistry::Global().Check("serve.admitted");
    if (!out.status.ok()) return out;
  }
  // Run on this thread once the controller grants a worker slot.
  if (!out.ticket.AcquireWorker()) {
    out.status = Status::Unavailable("server is shutting down");
    out.rejected = true;
    return out;
  }
  // A request that waited out its budget for a slot is not worth a fit
  // nobody is waiting for.
  easytime::Result<easytime::Json> answered =
      deadline->expired()
          ? Status::DeadlineExceeded("request deadline expired while queued")
          : ExecuteFast(req, *deadline);
  if (!answered.ok()) {
    if (answered.status().IsDeadlineExceeded()) {
      deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
    }
    out.status = answered.status();
    return out;
  }
  out.result = std::move(*answered);
  // Degraded answers must not outlive the fault that produced them: a
  // cached fallback ranking would keep being served long after the
  // classifier recovered.
  if (out.result.GetBool("degraded", false)) {
    degraded_responses_.fetch_add(1, std::memory_order_relaxed);
    out.fill_key.clear();
  }
  return out;
}

easytime::Result<easytime::Json> ForecastServer::ExecuteFast(
    const Request& req, const easytime::Deadline& deadline) {
  EASYTIME_FAULT_POINT("serve.execute");
  if (req.endpoint == "forecast") {
    return ExecuteForecast(req.params, deadline);
  }
  if (req.endpoint == "recommend") return ExecuteRecommend(req.params);
  if (req.endpoint == "append") return ExecuteAppend(req.params);
  if (req.endpoint == "ask") {
    EASYTIME_FAULT_POINT("serve.ask");
    std::string question = req.params.GetString("question", "");
    if (question.empty()) {
      return Status::InvalidArgument("ask requires a \"question\" string");
    }
    // Test/bench aid (matches forecast's): simulate a slow QA backend to
    // exercise overload without burning CPU. Capped per request.
    double sleep_ms = req.params.GetDouble("sleep_ms", 0.0);
    if (sleep_ms > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          std::min(sleep_ms, 1000.0)));
    }
    EASYTIME_ASSIGN_OR_RETURN(qa::QaResponse resp, system_->Ask(question));
    return resp.ToJson();
  }
  if (req.endpoint == "sql") {
    EASYTIME_FAULT_POINT("serve.sql");
    std::string query = req.params.GetString("query", "");
    if (query.empty()) {
      return Status::InvalidArgument("sql requires a \"query\" string");
    }
    EASYTIME_ASSIGN_OR_RETURN(qa::QaResponse resp,
                              system_->AskSql(query, deadline));
    return resp.ToJson();
  }
  return Status::NotFound("unknown fast endpoint: " + req.endpoint);
}

easytime::Result<easytime::Json> ForecastServer::ExecuteAppend(
    const easytime::Json& params) {
  EASYTIME_FAULT_POINT("serve.append");
  std::string dataset = params.GetString("dataset", "");
  if (dataset.empty()) {
    return Status::InvalidArgument("append requires a \"dataset\" name");
  }
  if (!params.Has("values") || !params.Get("values").is_array() ||
      params.Get("values").size() == 0) {
    return Status::InvalidArgument(
        "append requires a non-empty \"values\" array");
  }
  const easytime::Json& arr = params.Get("values");
  // Either one array of numbers (univariate shorthand) or an array of
  // per-channel arrays; mixing the two shapes is malformed.
  std::vector<std::vector<double>> channels;
  const bool nested = arr.items().front().is_array();
  const size_t n_channels = nested ? arr.size() : 1;
  for (size_t c = 0; c < n_channels; ++c) {
    const easytime::Json& ch = nested ? arr.items()[c] : arr;
    if (!ch.is_array() || ch.size() == 0) {
      return Status::InvalidArgument(
          "append channels must be non-empty arrays of numbers");
    }
    EASYTIME_ASSIGN_OR_RETURN(
        std::vector<double> values,
        ReadNumbers(ch, "append values must be numbers"));
    if (values.size() > options_.max_inline_values) {
      return Status::InvalidArgument(
          "append batch exceeds the " +
          std::to_string(options_.max_inline_values) + "-point limit");
    }
    channels.push_back(std::move(values));
  }
  std::optional<size_t> expected_start;
  if (params.Has("start")) {
    const easytime::Json& s = params.Get("start");
    if (!s.is_number() || s.AsDouble() < 0.0 ||
        s.AsDouble() != std::floor(s.AsDouble())) {
      return Status::InvalidArgument(
          "\"start\" must be a non-negative integer");
    }
    expected_start = static_cast<size_t>(s.AsInt());
  }

  EASYTIME_ASSIGN_OR_RETURN(
      core::EasyTime::AppendOutcome outcome,
      system_->AppendObservations(dataset, channels, expected_start));
  // Only now — after the durable append succeeded — drop this dataset's
  // cached responses. Other datasets' entries are untouched.
  const size_t invalidated = cache_.InvalidateTag(dataset);

  easytime::Json result = easytime::Json::Object();
  result.Set("dataset", dataset);
  result.Set("appended", static_cast<int64_t>(outcome.appended));
  result.Set("length", static_cast<int64_t>(outcome.length));
  result.Set("characteristics_refreshed", outcome.characteristics_refreshed);
  result.Set("data_version", static_cast<int64_t>(outcome.data_version));
  result.Set("cache_invalidated", static_cast<int64_t>(invalidated));
  return result;
}

easytime::Result<std::vector<double>> ForecastServer::ResolveSeries(
    const easytime::Json& params, std::string* source_name) const {
  if (params.Has("values")) {
    const easytime::Json& arr = params.Get("values");
    if (!arr.is_array() || arr.size() == 0) {
      return Status::InvalidArgument("\"values\" must be a non-empty array");
    }
    if (arr.size() > options_.max_inline_values) {
      return Status::InvalidArgument(
          "\"values\" exceeds the " +
          std::to_string(options_.max_inline_values) + "-point limit");
    }
    if (source_name) *source_name = "inline";
    return ReadNumbers(arr, "\"values\" must contain only numbers");
  }
  std::string dataset = params.GetString("dataset", "");
  if (dataset.empty()) {
    return Status::InvalidArgument(
        "request needs either \"dataset\" or \"values\"");
  }
  // Copy under the facade's shared lock: the series may be growing via
  // concurrent appends, and a raw repository pointer would race with them.
  EASYTIME_ASSIGN_OR_RETURN(tsdata::Series series,
                            system_->SeriesSnapshot(dataset));
  if (source_name) *source_name = dataset;
  return std::move(series.mutable_values());
}

easytime::Result<easytime::Json> ForecastServer::ExecuteForecast(
    const easytime::Json& params, const easytime::Deadline& deadline) const {
  std::string method = params.GetString("method", "");
  if (method.empty()) {
    return Status::InvalidArgument("forecast requires a \"method\" name");
  }
  int64_t horizon =
      params.GetInt("horizon", static_cast<int64_t>(options_.default_horizon));
  if (horizon < 1 || horizon > static_cast<int64_t>(options_.max_horizon)) {
    return Status::OutOfRange(
        "horizon must be in [1, " + std::to_string(options_.max_horizon) +
        "]");
  }
  std::string source;
  EASYTIME_ASSIGN_OR_RETURN(std::vector<double> values,
                            ResolveSeries(params, &source));
  if (values.size() < 8) {
    return Status::InvalidArgument("series too short to forecast (< 8)");
  }

  // Test/bench aid: simulate a slow model to exercise admission control and
  // queueing without burning CPU. Capped so a client cannot stall a worker.
  double sleep_ms = params.GetDouble("sleep_ms", 0.0);
  if (sleep_ms > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        std::min(sleep_ms, 1000.0)));
  }

  easytime::Json method_config = params.Has("config") &&
                                         params.Get("config").is_object()
                                     ? params.Get("config")
                                     : easytime::Json::Object();
  EASYTIME_ASSIGN_OR_RETURN(
      methods::ForecasterPtr forecaster,
      methods::MethodRegistry::Global().Create(method, method_config));

  methods::FitContext ctx;
  ctx.horizon = static_cast<size_t>(horizon);
  ctx.seed = static_cast<uint64_t>(params.GetInt("seed", 42));
  // Forward the remaining request deadline into the fit loop — expensive
  // methods (gbdt, deep nets, grid searches) poll it cooperatively and
  // return DeadlineExceeded mid-fit instead of running to completion.
  ctx.deadline = deadline;
  EASYTIME_RETURN_IF_ERROR(forecaster->Fit(values, ctx));
  EASYTIME_ASSIGN_OR_RETURN(std::vector<double> forecast,
                            forecaster->Forecast(static_cast<size_t>(horizon)));

  easytime::Json result = easytime::Json::Object();
  result.Set("method", method);
  result.Set("source", source);
  result.Set("horizon", horizon);
  easytime::Json out = easytime::Json::Array();
  for (double v : forecast) out.Append(v);
  result.Set("values", std::move(out));
  return result;
}

easytime::Result<easytime::Json> ForecastServer::ExecuteRecommend(
    const easytime::Json& params) const {
  size_t k = static_cast<size_t>(std::max<int64_t>(0, params.GetInt("k", 0)));
  ensemble::Recommendation rec;
  easytime::Status primary_error;
  if (params.Has("values")) {
    std::string source;
    EASYTIME_ASSIGN_OR_RETURN(std::vector<double> values,
                              ResolveSeries(params, &source));
    auto r = system_->RecommendForValues(values, k);
    if (r.ok()) rec = std::move(*r); else primary_error = r.status();
  } else {
    std::string dataset = params.GetString("dataset", "");
    if (dataset.empty()) {
      return Status::InvalidArgument(
          "recommend needs either \"dataset\" or \"values\"");
    }
    auto r = system_->Recommend(dataset, k);
    if (r.ok()) rec = std::move(*r); else primary_error = r.status();
  }
  if (primary_error.ok()) return RecommendationsJson(rec);
  // Graceful degradation: when the classifier path fails transiently
  // (Internal/Unavailable), answer from the knowledge base's global
  // average ranking instead of failing the request. Bad-input errors
  // still surface.
  if (!primary_error.IsInternal() && !primary_error.IsUnavailable()) {
    return primary_error;
  }
  EASYTIME_ASSIGN_OR_RETURN(rec, GlobalAverageRanking(k));
  easytime::Json result = RecommendationsJson(rec);
  result.Set("degraded", true);
  result.Set("degraded_reason", primary_error.ToString());
  return result;
}

easytime::Result<ensemble::Recommendation>
ForecastServer::GlobalAverageRanking(size_t k) const {
  // Mean MAE per method over every benchmark result — the dataset-agnostic
  // ranking. Scores are negated MAE so higher is better, matching the
  // classifier path's convention.
  std::vector<knowledge::ResultEntry> rows =
      system_->knowledge().ResultsSnapshot();
  std::map<std::string, std::pair<double, size_t>> sums;
  for (const auto& row : rows) {
    auto it = row.metrics.find("mae");
    if (it == row.metrics.end() || !std::isfinite(it->second)) continue;
    auto& [sum, n] = sums[row.method];
    sum += it->second;
    ++n;
  }
  if (sums.empty()) {
    return Status::Unavailable(
        "recommendation fallback has no benchmark results to rank from");
  }
  ensemble::Recommendation rec;
  rec.reserve(sums.size());
  for (const auto& [method, acc] : sums) {
    rec.emplace_back(method, -acc.first / static_cast<double>(acc.second));
  }
  std::sort(rec.begin(), rec.end(), [](const auto& a, const auto& b) {
    return a.second > b.second;
  });
  if (k > 0 && rec.size() > k) rec.resize(k);
  return rec;
}

void ForecastServer::RecordStats(const std::string& endpoint, bool ok,
                                 bool rejected, bool cache_hit,
                                 double seconds) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  EndpointStats& s = endpoint_stats_[endpoint];
  ++s.requests;
  if (ok) ++s.ok; else ++s.errors;
  if (rejected) ++s.rejected;
  if (cache_hit) ++s.cache_hits;
  s.total_seconds += seconds;
  s.max_seconds = std::max(s.max_seconds, seconds);
}

easytime::Json ForecastServer::StatsJson() const {
  easytime::Json endpoints = easytime::Json::Object();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    for (const auto& [name, s] : endpoint_stats_) {
      easytime::Json e = easytime::Json::Object();
      e.Set("requests", static_cast<int64_t>(s.requests));
      e.Set("ok", static_cast<int64_t>(s.ok));
      e.Set("errors", static_cast<int64_t>(s.errors));
      e.Set("rejected", static_cast<int64_t>(s.rejected));
      e.Set("cache_hits", static_cast<int64_t>(s.cache_hits));
      e.Set("mean_seconds",
            s.requests ? s.total_seconds / static_cast<double>(s.requests)
                       : 0.0);
      e.Set("max_seconds", s.max_seconds);
      endpoints.Set(name, std::move(e));
    }
  }

  ResultCache::Stats cs = cache_.stats();
  easytime::Json cache = easytime::Json::Object();
  cache.Set("entries", static_cast<int64_t>(cs.entries));
  cache.Set("hits", static_cast<int64_t>(cs.hits));
  cache.Set("misses", static_cast<int64_t>(cs.misses));
  cache.Set("insertions", static_cast<int64_t>(cs.insertions));
  cache.Set("evictions", static_cast<int64_t>(cs.evictions));
  cache.Set("invalidations", static_cast<int64_t>(cs.invalidations));
  cache.Set("tag_invalidations", static_cast<int64_t>(cs.tag_invalidations));
  cache.Set("flushes", static_cast<int64_t>(cs.flushes));

  JobManager::Stats js = jobs_.stats();
  easytime::Json jobs = easytime::Json::Object();
  jobs.Set("submitted", static_cast<int64_t>(js.submitted));
  jobs.Set("rejected", static_cast<int64_t>(js.rejected));
  jobs.Set("completed", static_cast<int64_t>(js.completed));
  jobs.Set("failed", static_cast<int64_t>(js.failed));
  jobs.Set("cancelled", static_cast<int64_t>(js.cancelled));
  jobs.Set("resumed_records", static_cast<int64_t>(js.resumed_records));
  jobs.Set("peak_running", static_cast<int64_t>(js.peak_running));
  jobs.Set("running", static_cast<int64_t>(jobs_.running_jobs()));
  jobs.Set("queue_depth", static_cast<int64_t>(jobs_.queue_depth()));

  easytime::Json out = easytime::Json::Object();
  // Where these counters were measured: "process" = one server; the cluster
  // router re-tags its merged view as "cluster" (DESIGN.md §14).
  out.Set("scope", "process");
  out.Set("endpoints", std::move(endpoints));
  out.Set("cache", std::move(cache));
  out.Set("jobs", std::move(jobs));
  out.Set("admission",
          admission_ ? admission_->StatsJson() : easytime::Json::Object());
  out.Set("deadline_exceeded",
          static_cast<int64_t>(
              deadline_exceeded_.load(std::memory_order_relaxed)));
  out.Set("degraded_responses",
          static_cast<int64_t>(
              degraded_responses_.load(std::memory_order_relaxed)));
  out.Set("kb_version",
          static_cast<int64_t>(system_->knowledge().version()));
  return out;
}

}  // namespace easytime::serve
