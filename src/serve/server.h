#pragma once

/// \file server.h
/// \brief ForecastServer — the concurrent request-serving layer on top of
/// the EasyTime facade. Accepts line-delimited JSON requests (see
/// request.h) from in-process clients (HandleLine/Call) and, via
/// serve/event_loop.h, from a loopback TCP listener.
///
/// Architecture (DESIGN.md §6, §13):
///  - Fast lane: forecast / recommend / ask / sql / append requests take an
///    admission ticket: a per-endpoint weighted queue slot (class over quota
///    with no shared headroom => Unavailable, the admission-control
///    contract; see serve/admission.h). The calling thread (an in-process
///    client, or a TCP connection's own thread) then waits on the ticket for
///    one of the fast_lane_workers slots, granted by class with guaranteed
///    shares, and runs the request itself. The ticket gives both slots back
///    when it dies, after the request's stats and cache fill.
///  - Async lane: "evaluate" submits a OneClickEvaluate job, "backtest" a
///    rolling-origin backtest job, to a bounded job queue
///    (serve/job_manager.h); clients poll "job_status" and may "cancel"
///    queued or in-flight jobs.
///  - Control plane: "stats", "job_status", "cancel", "flush_cache" and
///    "ping" execute inline on the calling thread — they must stay
///    responsive even when the lanes are saturated.
///  - One exit: every path through Dispatch (shed, error, cache hit,
///    answer, control plane) ends as one Outcome; the stats are recorded and
///    the reply line is built from it in one place.
///  - Result cache: forecast/recommend answers read from a stored dataset
///    are cached (LRU + TTL) under the canonical request key, tagged with
///    it; an append drops exactly that dataset's entries (serve/cache.h),
///    "flush_cache" drops all. Uploads ("values") are never cached.

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/deadline.h"
#include "common/json.h"
#include "common/overload.h"
#include "common/result.h"
#include "core/easytime.h"
#include "serve/admission.h"
#include "serve/cache.h"
#include "serve/job_manager.h"
#include "serve/request.h"
#include "serve/retry.h"

namespace easytime::serve {

/// Per-endpoint serving counters.
struct EndpointStats {
  uint64_t requests = 0;
  uint64_t ok = 0;
  uint64_t errors = 0;
  uint64_t rejected = 0;    ///< admission-control rejections
  uint64_t cache_hits = 0;
  double total_seconds = 0.0;
  double max_seconds = 0.0;
};

/// \brief The serving layer. Construction is cheap; Start() spins up the
/// job workers (the fast lane runs on its callers' threads). Stop() (also
/// run by the destructor) drains: admitted fast-lane requests are answered,
/// the in-flight evaluation job completes, queued evaluation jobs are
/// cancelled, and only then do the threads exit — no response is dropped.
class ForecastServer {
 public:
  struct Options {
    /// Fast-lane requests admitted at once (queued or running); the
    /// admission controller's slot budget.
    size_t fast_lane_capacity = 128;
    size_t evaluate_queue_capacity = 8;
    /// Evaluation jobs run at once (JobManager workers). Running jobs fan
    /// out on the one process pool, so a lone job gets every worker and
    /// concurrent jobs share them.
    size_t evaluate_concurrency = 1;
    /// Fast-lane requests executing at once. A slot count, not a thread
    /// count: the fast lane runs on its callers' threads (for TCP, each
    /// connection's own thread).
    size_t fast_lane_workers = 2;
    size_t cache_capacity = 256;       ///< 0 disables the result cache
    double cache_ttl_seconds = 300.0;
    size_t max_request_bytes = 1 << 16;
    size_t default_horizon = 24;
    size_t max_horizon = 512;
    size_t max_inline_values = 100000; ///< cap on uploaded "values" arrays
    /// Directory for evaluation-job checkpoints ("" disables them). With a
    /// directory set, a job whose server died mid-run resumes from the last
    /// checkpoint when resubmitted with the same "job_key" (see
    /// serve/job_manager.h).
    std::string checkpoint_dir;
    /// When the facade opened warm from a persisted knowledge store,
    /// Start() pre-computes recommend responses for every stored dataset
    /// and seeds the result cache, so first requests after a restart hit
    /// warm entries. No effect on a cold (freshly seeded) system.
    bool warm_cache = true;
    /// Per-endpoint admission weights (queue-slot reservations and worker
    /// guarantees, see serve/admission.h). Endpoints absent from the map
    /// get weight 1.
    std::map<std::string, double> endpoint_weights = {
        {"forecast", 4.0}, {"recommend", 2.0}, {"ask", 2.0}, {"sql", 2.0},
        {"append", 1.0}};
    /// Brownout hysteresis as fractions of fast_lane_capacity: enter
    /// degraded mode at/above the first, leave at/below the second.
    double brownout_enter_fraction = 0.75;
    double brownout_exit_fraction = 0.25;
  };

  /// \param system a fully created facade; not owned. The repository must
  /// not be mutated while the server is running.
  ForecastServer(core::EasyTime* system, Options options);
  explicit ForecastServer(core::EasyTime* system);
  ~ForecastServer();

  ForecastServer(const ForecastServer&) = delete;
  ForecastServer& operator=(const ForecastServer&) = delete;

  /// Starts the lanes (idempotent).
  void Start();

  /// Graceful shutdown with drain (idempotent, terminal).
  void Stop();

  bool running() const { return running_.load(); }

  /// \brief The in-process client: one request line in, one response line
  /// out (no trailing newline). Never throws; protocol errors come back as
  /// error responses.
  std::string HandleLine(const std::string& line);

  /// Typed in-process client: dispatches and unwraps the response envelope,
  /// returning the "result" payload or the error status.
  easytime::Result<easytime::Json> Call(const std::string& endpoint,
                                        const easytime::Json& params);

  /// \brief Call with retry: transient Unavailable failures (full queues,
  /// draining server) back off exponentially with jitter and try again;
  /// permanent failures return immediately.
  easytime::Result<easytime::Json> CallWithRetry(
      const std::string& endpoint, const easytime::Json& params,
      const RetryPolicy& policy = RetryPolicy());

  /// The stats payload (same shape the "stats" endpoint returns).
  easytime::Json StatsJson() const;

  /// A registered control-plane extension: params in, result payload out.
  using ControlFn = std::function<easytime::Result<easytime::Json>(
      const easytime::Json& params)>;

  /// \brief Registers \p name as an inline control-plane endpoint (served
  /// like ping/stats: immediately, never queued or shed — the cluster
  /// worker's replication plane hangs off this). Must be called before
  /// Start(); built-in endpoint names cannot be overridden because the
  /// built-ins are checked first.
  void RegisterControlEndpoint(const std::string& name, ControlFn fn);

  core::EasyTime* system() { return system_; }
  const Options& options() const { return options_; }

 private:
  /// One request's result, rejection or cache hit, plus its admission
  /// ticket (defined in server.cc).
  struct Outcome;

  /// Full request lifecycle and its one exit: Route computes the outcome,
  /// then the stats are recorded and the reply line built in one place.
  /// Returns the response line (no trailing newline); a cache hit splices
  /// the cached result bytes into it without parsing them.
  std::string Dispatch(Request req);

  /// Routes, admits and executes one request; every path returns its
  /// outcome instead of answering.
  Outcome Route(const Request& req);

  /// \brief Runs a fast-lane endpoint to completion (caller's thread, under
  /// a granted worker slot).
  /// The request's remaining deadline is forwarded to endpoints that can
  /// honor it mid-flight (the "sql" table functions check it between group
  /// fits); the queue-level expiry check already happened by this point.
  easytime::Result<easytime::Json> ExecuteFast(
      const Request& req,
      const easytime::Deadline& deadline = easytime::Deadline());

  easytime::Result<easytime::Json> ExecuteForecast(
      const easytime::Json& params,
      const easytime::Deadline& deadline = easytime::Deadline()) const;
  easytime::Result<easytime::Json> ExecuteRecommend(
      const easytime::Json& params) const;

  /// \brief Streaming ingestion: durably appends observations to a stored
  /// dataset via the facade, then drops exactly that dataset's cache
  /// entries (tag invalidation) — other datasets' entries stay hot.
  easytime::Result<easytime::Json> ExecuteAppend(const easytime::Json& params);

  /// Degraded recommend path: methods ranked by mean MAE over every
  /// benchmark result (dataset-agnostic), used when the classifier fails.
  easytime::Result<ensemble::Recommendation> GlobalAverageRanking(
      size_t k) const;

  /// Resolves the series a forecast/recommend request targets: either a
  /// repository dataset ("dataset") or inline values ("values").
  easytime::Result<std::vector<double>> ResolveSeries(
      const easytime::Json& params, std::string* source_name) const;

  void RecordStats(const std::string& endpoint, bool ok, bool rejected,
                   bool cache_hit, double seconds);

  /// Pre-populates the recommend cache from the restored knowledge base
  /// (Start()-time, before the server accepts traffic).
  void WarmCache();

  core::EasyTime* system_;
  Options options_;
  /// Control-plane extensions (RegisterControlEndpoint). Written only
  /// before Start(), read by Dispatch — no lock by contract.
  std::map<std::string, ControlFn> control_endpoints_;
  ResultCache cache_;
  JobManager jobs_;
  /// Per-endpoint admission quotas + weighted worker scheduling. A request
  /// takes a ticket in Route (shed = Unavailable) and waits in its class's
  /// queue for a worker slot, so one endpoint's burst cannot
  /// head-of-line-block the others; the ticket gives both slots back when
  /// Dispatch's outcome dies (serve/admission.h).
  std::unique_ptr<AdmissionController> admission_;
  std::atomic<bool> running_{false};
  std::atomic<bool> accepting_{false};
  std::atomic<bool> stopped_{false};  ///< Stop() is terminal

  /// QoS counters surfaced by StatsJson.
  std::atomic<uint64_t> deadline_exceeded_{0};
  std::atomic<uint64_t> degraded_responses_{0};

  mutable std::mutex stats_mu_;
  std::map<std::string, EndpointStats> endpoint_stats_;
};

}  // namespace easytime::serve
