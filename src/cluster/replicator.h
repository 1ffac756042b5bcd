#pragma once

/// \file replicator.h
/// \brief WAL segment shipping from shard primaries to their followers
/// (DESIGN.md §14). A background thread periodically lists each primary's
/// store directories, exports every SEALED segment (all but the active one
/// — sealed files never grow, so one ship per file suffices) and posts the
/// bytes, base64-encoded, to the follower's `replica_apply` /
/// `replica_apply_appends` control endpoints. The follower's import runs
/// the CRC torn-tail guard and replays knowledge records into its live
/// system; acked-durability does NOT depend on shipping (the primary's
/// fsync does that) — shipping bounds how much promotion must catch up and
/// is measured as segment-ship lag.
///
/// Promotion's final catch-up reuses SyncFrozenStoreDir(): after a primary
/// dies, its store directory is frozen on disk, so the follower copies
/// every remaining valid record (including the active segment's valid
/// prefix and every retained snapshot) before opening the store as its own.

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>

#include "common/json.h"
#include "common/result.h"

namespace easytime::cluster {

/// What one SyncFrozenStoreDir call moved.
struct CatchUpReport {
  size_t segments_copied = 0;
  size_t snapshots_copied = 0;
  uint64_t bytes_copied = 0;
  uint64_t last_seq = 0;  ///< highest valid record seq seen in src
};

/// \brief Copies a frozen record-store directory (WAL segments + every
/// retained snapshot) from \p src into \p dst. Segment bytes travel through
/// the validated export/import path, so a torn tail from the primary's death
/// mid-append is cut; snapshots are copied verbatim and unvalidated, so a
/// corrupt newest one falls back at \p dst to the next older one, exactly as
/// recovery at \p src would. \p dst is
/// created if missing. Missing \p src is not an error (empty report) —
/// a primary that never appended has nothing to catch up.
easytime::Result<CatchUpReport> SyncFrozenStoreDir(const std::string& src,
                                                   const std::string& dst);

class Replicator {
 public:
  struct Options {
    double interval_ms = 200.0;  ///< shipping pass period
    std::string auth_token;      ///< worker connection credential
  };

  /// Per-shard shipping stats (atomic snapshot via StatsJson).
  struct LinkStats {
    uint64_t segments_shipped = 0;
    uint64_t bytes_shipped = 0;
    uint64_t records_applied = 0;  ///< as reported by the follower
    uint64_t ship_failures = 0;
    uint64_t primary_last_seq = 0;   ///< newest valid record on the primary
    uint64_t follower_applied_seq = 0;
    uint64_t ship_lag = 0;  ///< primary_last_seq - follower_applied_seq
    uint64_t appends_last_seq = 0;    ///< newest append-log record (primary)
    uint64_t appends_staged_seq = 0;  ///< staged on the follower
  };

  explicit Replicator(Options options) : options_(options) {}
  ~Replicator() { Stop(); }

  Replicator(const Replicator&) = delete;
  Replicator& operator=(const Replicator&) = delete;

  /// \brief Points (or re-points, after failover) one shard's shipping
  /// link: sealed segments under \p primary_store_dir go to the follower
  /// on \p follower_port. Port 0 disables the link (shard has no replica).
  void SetLink(const std::string& shard_id, const std::string& store_dir,
               uint16_t follower_port);
  void RemoveLink(const std::string& shard_id);

  void Start();
  void Stop();

  /// One synchronous shipping pass over every link (the background thread
  /// calls this; tests call it directly for determinism).
  void ShipOnce();

  easytime::Json StatsJson() const;
  LinkStats StatsFor(const std::string& shard_id) const;

 private:
  struct Link {
    std::string store_dir;
    uint16_t follower_port = 0;
    /// file -> valid_bytes already shipped (sealed segments never grow, so
    /// one successful ship retires the file).
    std::map<std::string, uint64_t> shipped;
    LinkStats stats;
  };

  void ShipLink(const std::string& shard_id, Link& link);

  const Options options_;
  mutable std::mutex mu_;
  std::map<std::string, Link> links_;
  std::thread thread_;
  std::atomic<bool> running_{false};
};

}  // namespace easytime::cluster
