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
///  - Fungible work (inline-values forecasts, ask, sql, evaluate/backtest
///    jobs) uses bounded-load consistent hashing over a request key, so a
///    hot shard sheds overflow to its ring successors.
///  - recommend / stats / flush_cache fan out to every shard and merge.
///  - append and evaluate/backtest job submits are forwarded AT MOST ONCE:
///    connect-level failures (no request byte sent) and the worker's own
///    clean Unavailable rejections retry under the backoff policy, but once
///    bytes are in flight a failure is ambiguous and surfaces as
///    Unavailable instead of risking a duplicate ingest or a second job
///    (producers disambiguate appends with an explicit "start" offset).
///  - When a shard's primary is down (process death or open breaker), reads
///    fall back to its replica with `"degraded": true` in the result —
///    stale but never wrong answers; appends return Unavailable until the
///    replica is promoted.
///
/// Failure handling: a health thread pings workers (feeding per-shard
/// circuit breakers), detects primary death, asks the shard's replica to
/// promote (final catch-up from the dead primary's frozen store — no acked
/// append is lost), re-points the replication link, and spawns a fresh
/// replica; a shard with no replica is restarted in place under the
/// supervisor's exponential backoff.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
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
    size_t client_pool_per_shard = 8;  ///< idle pooled connections cap
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
  struct IdleClient {
    uint16_t port = 0;
    std::unique_ptr<serve::TcpClient> client;
  };

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
    std::mutex pool_mu;
    std::vector<IdleClient> pool;
  };

  Shard* FindShard(const std::string& id);
  /// Routes a request key: \p stable = true for data placement (Owner),
  /// false for fungible work (bounded-load Pick).
  easytime::Result<Shard*> RouteKey(std::string_view key, bool stable);

  /// Pooled send: one raw line to a worker port under \p policy.
  easytime::Result<std::string> SendToWorker(Shard& shard, uint16_t port,
                                             const std::string& line,
                                             const serve::RetryPolicy& policy);
  easytime::Result<easytime::Json> CallWorker(Shard& shard, uint16_t port,
                                              const std::string& endpoint,
                                              const easytime::Json& params);

  std::string ForwardRead(Shard& shard, const serve::Request& req,
                          const std::string& line);
  /// Forward for non-idempotent requests (append, evaluate/backtest job
  /// submits): only provably-unexecuted failures retry; an ambiguous drop
  /// surfaces as Unavailable carrying \p retry_hint.
  std::string ForwardAtMostOnce(Shard& shard, const serve::Request& req,
                                const std::string& line,
                                const std::string& retry_hint);
  std::string FanOutStats(const serve::Request& req);
  std::string FanOutRecommend(const serve::Request& req);
  std::string FanOutFlushCache(const serve::Request& req);
  std::string FanOutJobLookup(const serve::Request& req,
                              const std::string& line);

  /// Tags a successful response's result object "degraded": true.
  std::string TagDegraded(const std::string& response_line,
                          const std::string& reason);

  void HealthLoop();
  void CheckShard(Shard& shard);
  void StartFailover(Shard& shard);
  void FinishFailoverIfPromoted(Shard& shard);
  /// Spawns a fresh replica for \p shard (new name + empty staging dir).
  void SpawnReplacementReplica(Shard& shard);

  easytime::Result<uint16_t> SpawnWorker(const std::string& name,
                                         const std::string& role,
                                         const std::string& store_dir);

  std::unique_ptr<serve::TcpClient> AcquireClient(Shard& shard,
                                                  uint16_t port);
  void ReleaseClient(Shard& shard, uint16_t port,
                     std::unique_ptr<serve::TcpClient> client);

  Options options_;
  ShardMap map_;
  Supervisor supervisor_;
  Replicator replicator_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<serve::EventLoopServer> frontend_;
  std::thread health_thread_;
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
