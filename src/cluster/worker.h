#pragma once

/// \file worker.h
/// \brief One shard worker process (DESIGN.md §14): a full EasyTime system
/// behind a ForecastServer on the TCP front-end, plus the replication
/// control plane the router and replicator drive.
///
/// Roles:
///  - "primary": owns the shard's durable store (store_dir) and serves all
///    traffic the router routes here. Every append is fsynced before the
///    ack leaves the process.
///  - "replica": runs the same deterministically generated suite IN MEMORY
///    (store_dir is used only as a staging area for shipped WAL segments),
///    merges live-shipped knowledge records via
///    EasyTime::IngestReplicatedResults, and serves stale reads that the
///    router tags "degraded" while its shard's primary is down. `promote`
///    turns it into a primary: a final catch-up copies the dead primary's
///    frozen store (torn tails cut by the CRC guard), a fresh EasyTime
///    opens that store (replaying WAL + append log), and the listener is
///    rebound on the same port.
///
/// Control endpoints registered on the ForecastServer (inline lane):
///   replica_apply          {file, data(b64)} -> {applied_seq, records}
///   replica_apply_appends  {file, data(b64)} -> {applied_seq, records}
///   promote                {source_dir}      -> {promoting: true}
///   replica_status         {}                -> {role, promoting, ...}

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/result.h"
#include "core/easytime.h"
#include "serve/event_loop.h"
#include "serve/server.h"

namespace easytime::cluster {

struct WorkerConfig {
  uint16_t port = 0;         ///< 0 = ephemeral
  std::string role = "primary";  ///< "primary" | "replica"
  /// Primary: the durable store. Replica: the staging root where shipped
  /// segments land and which promotion opens as the new durable store.
  std::string store_dir;
  std::string preset = "small";  ///< "small" | "default" system options
  std::string auth_token;        ///< "" = EASYTIME_AUTH_TOKEN env / none
};

/// System options for a preset name ("small" mirrors the test fixture's
/// fast bring-up; "default" is the full suite).
easytime::Result<core::EasyTime::Options> PresetOptions(
    const std::string& preset);

class ShardWorker {
 public:
  static easytime::Result<std::unique_ptr<ShardWorker>> Start(
      WorkerConfig config);
  ~ShardWorker();

  ShardWorker(const ShardWorker&) = delete;
  ShardWorker& operator=(const ShardWorker&) = delete;

  void Stop();
  uint16_t port() const { return port_; }
  std::string role() const;

 private:
  explicit ShardWorker(WorkerConfig config) : config_(std::move(config)) {}

  /// Builds system + server + front-end for the current role and store,
  /// binding on \p port (0 = ephemeral). On success the previous serving
  /// stack, if any, is retired (kept allocated: in-flight handlers may
  /// still hold it).
  easytime::Status BringUp(const std::string& store_dir, uint16_t port);

  void RegisterControlEndpoints(serve::ForecastServer* server);

  easytime::Result<easytime::Json> ReplicaApply(const easytime::Json& params);
  easytime::Result<easytime::Json> ReplicaApplyAppends(
      const easytime::Json& params);
  easytime::Result<easytime::Json> Promote(const easytime::Json& params);
  easytime::Result<easytime::Json> ReplicaStatus();

  /// Promotion body (background thread kicked by the promote endpoint).
  void PromoteThread(std::string source_dir);

  WorkerConfig config_;
  uint16_t port_ = 0;

  mutable std::mutex mu_;  ///< guards the serving stack + role fields
  std::unique_ptr<core::EasyTime> system_;
  std::unique_ptr<serve::ForecastServer> server_;
  std::unique_ptr<serve::EventLoopServer> frontend_;
  /// Retired stacks (pre-promotion): torn down but kept allocated until
  /// worker shutdown so a racing handler never touches freed memory.
  std::vector<std::unique_ptr<serve::EventLoopServer>> old_frontends_;
  std::vector<std::unique_ptr<serve::ForecastServer>> old_servers_;
  std::vector<std::unique_ptr<core::EasyTime>> old_systems_;

  std::string role_;  ///< guarded by mu_
  std::atomic<bool> promoting_{false};
  std::string promote_error_;  ///< guarded by mu_
  std::thread promote_thread_;
  std::atomic<uint64_t> applied_seq_{0};   ///< KB records merged live
  std::atomic<uint64_t> appends_staged_seq_{0};
  std::atomic<bool> stopped_{false};
};

}  // namespace easytime::cluster
