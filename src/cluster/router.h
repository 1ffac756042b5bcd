#pragma once

/// \file router.h
/// \brief The cluster router (DESIGN.md §14): one process that owns the
/// client-facing TCP front-end and consistent-hashes work across N shard
/// worker processes, each a full ForecastServer over loopback.
///
/// Routing contract:
///  - Requests naming a stored "dataset" (forecast/recommend/append/…) go
///    to the dataset's OWNER shard — stable placement, so a dataset's
///    appends, WAL, and evaluation results accumulate on one shard.
///  - sql goes to the owner of one fixed key: SQL tables live in one worker
///    process, so every statement must reach the same one.
///  - Fungible work (forecasts over uploaded "values", ask, evaluate/
///    backtest jobs) uses bounded-load consistent hashing over the request
///    line, so a hot shard sheds overflow to its ring successors.
///  - recommend / stats / flush_cache fan out to every shard and merge.
///    recommend asks each shard for its full ranking, averages the scores
///    and only then cuts to the request's "k".
///  - append and evaluate/backtest job submits are forwarded AT MOST ONCE:
///    connect-level failures (no request byte sent) and the worker's own
///    clean Unavailable rejections retry under the jittered backoff policy,
///    but once bytes are in flight a failure is ambiguous and surfaces as
///    Unavailable instead of risking a duplicate ingest or a second job
///    (producers disambiguate appends with an explicit "start" offset).
///  - When a shard's primary is down (process death or open breaker), reads
///    fall back to its replica with `"degraded": true` in the result —
///    stale but never wrong answers; appends return Unavailable until the
///    replica is promoted.
///  - job_status / cancel pinned with the submit ack's "shard" go to that
///    primary only. Un-pinned, every primary is asked and the one shard that
///    knows the id answers; workers number jobs independently, so an id two
///    shards know is InvalidArgument, and one a silent shard might know is
///    Unavailable.
///
/// Every router→worker call is one Exchange (one attempt over one of at most
/// 8 pooled idle connections per shard, or a fresh dial); retrying lives in
/// one serve::RetryCall per forward, bounded by the request's "deadline_ms"
/// when it has one: no backoff is slept that would outlive the budget.
///
/// Failure handling: a health thread pings workers (feeding per-shard
/// circuit breakers), detects primary death, asks the shard's replica to
/// promote (final catch-up from the dead primary's frozen store — no acked
/// append is lost), re-points the replication link, and spawns a fresh
/// replica; a shard with no replica is restarted in place under the
/// supervisor's exponential backoff.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/replicator.h"
#include "cluster/shard_map.h"
#include "cluster/supervisor.h"
#include "common/circuit_breaker.h"
#include "common/json.h"
#include "common/result.h"
#include "serve/client.h"
#include "serve/event_loop.h"
#include "serve/request.h"
#include "serve/retry.h"

namespace easytime::cluster {

class ClusterRouter {
 public:
  struct Options {
    size_t shards = 2;
    bool replicate = true;          ///< one follower per shard
    std::string worker_binary;      ///< easytime_shard_worker path
    std::string work_dir;           ///< stores, logs, port files live here
    std::string preset = "small";   ///< worker system preset
    std::string auth_token;         ///< front-end AND worker credential
    uint16_t port = 0;              ///< client-facing port (0 = ephemeral)
    size_t max_request_bytes = 1 << 20;
    double health_interval_ms = 200.0;
    int breaker_threshold = 3;
    double breaker_cooldown_ms = 500.0;
    serve::RetryPolicy retry;       ///< read-path forwarding retries
    double ship_interval_ms = 150.0;  ///< 0 disables background shipping
    double worker_spawn_timeout_ms = 120000.0;
    ShardMap::Options placement;
  };

  explicit ClusterRouter(Options options);
  ~ClusterRouter();

  ClusterRouter(const ClusterRouter&) = delete;
  ClusterRouter& operator=(const ClusterRouter&) = delete;

  /// Spawns the workers (primaries, then replicas), starts the replication
  /// and health threads, and binds the client front-end.
  easytime::Status Start();
  void Stop();

  uint16_t port() const { return frontend_ ? frontend_->port() : 0; }

  /// The front-end handler: one request line in, one response line out (no
  /// trailing newline). Public so tests can drive routing in-process.
  std::string HandleLine(const std::string& line);

  /// Stable owner of a dataset key (test/observability hook).
  easytime::Result<std::string> OwnerShard(const std::string& dataset) const;

  /// Crash a shard's primary (failover tests).
  easytime::Status KillShardPrimary(const std::string& shard_id, int sig);

  /// One synchronous health pass (what the background thread runs).
  void HealthCheckNow();

  easytime::Json ClusterStatusJson();

  Supervisor* supervisor() { return &supervisor_; }
  Replicator* replicator() { return &replicator_; }

 private:
  struct Shard {
    std::string id;
    std::string primary_name;
    std::string replica_name;   ///< empty = no replica right now
    std::string primary_store;
    std::string replica_store;
    std::atomic<uint16_t> primary_port{0};
    std::atomic<uint16_t> replica_port{0};
    /// Never reassigned after construction — connection threads call through
    /// the raw pointer without a lock, so failover calls Reset() on the
    /// stable object instead of swapping it.
    std::unique_ptr<CircuitBreaker> breaker;
    std::atomic<size_t> outstanding{0};  ///< bounded-load reading
    std::atomic<bool> down{false};
    std::atomic<bool> promoting{false};
    std::atomic<uint64_t> failovers{0};
    size_t replica_generation = 0;  ///< fresh staging dir per replica
    std::mutex mu;                  ///< failover transitions
    /// Guards the four name/store strings above. The health thread (their
    /// sole writer) holds it while rewriting them; connection threads hold it
    /// to copy them out. Held only for the copy — never across I/O — so
    /// status reads cannot stall behind a health ping or promotion.
    std::mutex meta_mu;
    /// {primary_name, replica_name}, copied under meta_mu.
    std::pair<std::string, std::string> Names() {
      std::lock_guard<std::mutex> lock(meta_mu);
      return {primary_name, replica_name};
    }
    std::mutex pool_mu;
    /// Idle connections by worker port (primary and replica share it).
    std::multimap<uint16_t, std::unique_ptr<serve::TcpClient>> pool;
    void DropIdleClients() {
      std::lock_guard<std::mutex> lock(pool_mu);
      pool.clear();
    }
  };

  Shard* FindShard(const std::string& id);
  /// Routes a request key: \p stable = true for data placement (Owner),
  /// false for fungible work (bounded-load Pick).
  easytime::Result<Shard*> RouteKey(std::string_view key, bool stable);

  /// One unretried SendLineOnce to the worker on \p port over an idle pooled
  /// connection (a new dial when \p fresh); \p sent as in SendLineOnce.
  easytime::Result<std::string> Exchange(Shard& shard, uint16_t port,
                                         const std::string& line, bool fresh,
                                         bool* sent = nullptr);
  /// Exchange plus serve::ParseResponse: the reply's result or its error.
  easytime::Result<easytime::Json> CallWorker(Shard& shard, uint16_t port,
                                              const std::string& line);

  /// Retried primary forward, then (if \p replica_fallback) one replica try.
  std::string ForwardRead(Shard& shard, const serve::Request& req,
                          const std::string& line, bool replica_fallback);
  /// Forward for non-idempotent requests (append, evaluate/backtest job
  /// submits): only provably-unexecuted failures retry; an ambiguous drop
  /// surfaces as Unavailable carrying \p retry_hint.
  std::string ForwardAtMostOnce(Shard& shard, const serve::Request& req,
                                const std::string& line,
                                const std::string& retry_hint);

  /// Counts one unavailable_responses and returns \p why's error line.
  std::string UnavailableReply(int64_t id, const easytime::Status& why);

  struct ShardAnswer {
    Shard* shard;
    easytime::Result<easytime::Json> result;
    bool from_replica;  ///< the primary failed and the replica was asked
  };
  /// One request line to every primary (or, if \p replica_fallback, to the
  /// replica of a primary that failed); the FanOut* merges read the answers.
  std::vector<ShardAnswer> AskEveryShard(const std::string& endpoint,
                                         const easytime::Json& params,
                                         bool replica_fallback);
  std::string FanOutStats(const serve::Request& req);
  std::string FanOutRecommend(const serve::Request& req);
  std::string FanOutFlushCache(const serve::Request& req);
  std::string FanOutJobLookup(const serve::Request& req,
                              const std::string& line);

  void HealthLoop();
  void CheckShard(Shard& shard);
  void StartFailover(Shard& shard);
  void FinishFailoverIfPromoted(Shard& shard);
  /// Spawns the shard's next replica (new name + empty staging dir) and
  /// links it to the primary's store.
  easytime::Status SpawnReplica(Shard& shard);

  easytime::Result<uint16_t> SpawnWorker(const std::string& name,
                                         const std::string& role,
                                         const std::string& store_dir);

  Options options_;
  ShardMap map_;
  Supervisor supervisor_;
  Replicator replicator_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<serve::EventLoopServer> frontend_;
  std::thread health_thread_;
  std::mutex health_mu_;  ///< with health_cv_, wakes HealthLoop on Stop()
  std::condition_variable health_cv_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopped_{false};

  // Router-level QoS counters (merged into the cluster "stats" view).
  std::atomic<uint64_t> requests_routed_{0};
  std::atomic<uint64_t> fanouts_{0};
  std::atomic<uint64_t> degraded_responses_{0};
  std::atomic<uint64_t> unavailable_responses_{0};
  std::atomic<uint64_t> append_ambiguous_{0};
  std::atomic<uint64_t> failovers_{0};
};

}  // namespace easytime::cluster
