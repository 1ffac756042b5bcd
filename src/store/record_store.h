#pragma once

/// \file record_store.h
/// \brief Crash-safe record store = snapshot + WAL tail (DESIGN.md §9).
/// Callers append opaque payloads (typically JSON) and periodically Compact()
/// with a full-state image; Open() recovers the newest valid snapshot plus
/// every surviving WAL record after it, tolerating torn/corrupt tails.
///
/// Compaction protocol: write snap-<last_seq>.snap durably, prune to
/// keep_snapshots images, then delete WAL segments fully covered by the
/// OLDEST retained snapshot — never the newest — so a snapshot that later
/// turns out corrupt can still be rebuilt from the previous image + WAL.
///
/// Durability: with sync_every_append each Append returns once its record
/// is durable, concurrent appenders sharing group-commit fsyncs; without
/// it, a buffered run of appends is closed by one Sync(). Failure: any
/// failed WAL write or fsync poisons the store, and every later Append,
/// Sync and Compact fails with that first error until the store is
/// reopened (Wal). A refused append may still be recovered on reopen.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "store/wal.h"

namespace easytime::store {

/// Tuning for one store instance.
struct RecordStoreOptions {
  /// Rotate WAL segments at this size.
  size_t segment_bytes = 1 << 20;
  /// Make every append durable before it returns; concurrent appenders
  /// share fsyncs (WalOptions::sync_every_append). Off, callers close a
  /// buffered run of appends with one Sync().
  bool sync_every_append = false;
  /// Snapshot images retained by Compact(); must be >= 1. With the default 2,
  /// WAL segments are only deleted once a second snapshot exists, so a
  /// corrupt newest snapshot never loses data.
  size_t keep_snapshots = 2;
};

/// Everything Open() recovered, for the caller to rebuild its state:
/// apply \p snapshot (if \p has_snapshot), then each \p tail record in order.
struct RecordStoreRecovery {
  bool has_snapshot = false;
  std::string snapshot;       ///< newest valid snapshot state
  uint64_t snapshot_seq = 0;  ///< records <= this are inside the snapshot
  /// Surviving WAL records with seq > snapshot_seq, in sequence order.
  std::vector<std::pair<uint64_t, std::string>> tail;
  uint64_t last_seq = 0;
  uint64_t bytes_dropped = 0;      ///< torn/corrupt WAL suffix truncated
  uint64_t segments_dropped = 0;   ///< WAL segments deleted past a corruption
  uint64_t corrupt_snapshots = 0;  ///< newer snapshots skipped as invalid
};

/// \brief The durable store. Append/Sync/Compact are thread-safe with
/// respect to each other (the underlying WAL serializes appends; Compact
/// snapshots the state the caller passes in, one compaction at a time).
class RecordStore {
 public:
  /// Opens (creating \p dir if needed) and recovers the store; stray
  /// temporary files from an interrupted snapshot write are removed.
  static easytime::Result<std::unique_ptr<RecordStore>> Open(
      const std::string& dir, const RecordStoreOptions& options,
      RecordStoreRecovery* recovery = nullptr);

  /// Appends one record to the WAL, returning its sequence number.
  easytime::Result<uint64_t> Append(std::string_view payload);

  /// Durability point: every record appended so far is durable when this
  /// returns ok (Wal::Sync).
  easytime::Status Sync();

  /// \brief Writes \p state as a snapshot covering everything appended so
  /// far, prunes old snapshots, and deletes WAL segments the retained
  /// snapshots make redundant. On success the append counter resets.
  easytime::Status Compact(std::string_view state);

  /// \brief Compact for callers that append concurrently: \p state must
  /// hold every record with seq <= \p covered_seq, read together with the
  /// state under the caller's own lock (records after it that \p state
  /// also holds are replayed as duplicates). A compaction older than the
  /// newest snapshot is skipped.
  easytime::Status Compact(std::string_view state, uint64_t covered_seq);

  uint64_t last_seq() const { return wal_->last_seq(); }
  uint64_t snapshot_seq() const { return snapshot_seq_; }
  /// Appends since the last successful Compact() (or Open).
  uint64_t appends_since_compaction() const {
    return appends_since_compaction_;
  }
  const std::string& dir() const { return dir_; }

  /// Group-commit counters of the underlying WAL (for tests/benchmarks).
  WalGroupCommitStats group_commit_stats() const {
    return wal_->group_commit_stats();
  }

 private:
  RecordStore(std::string dir, RecordStoreOptions options,
              std::unique_ptr<Wal> wal, uint64_t snapshot_seq);

  const std::string dir_;
  const RecordStoreOptions options_;
  std::unique_ptr<Wal> wal_;
  /// Serializes Compact: two at once would write the same snap-<seq>.tmp
  /// and race each other's rename, prune and segment removal.
  std::mutex compact_mu_;
  std::atomic<uint64_t> snapshot_seq_{0};
  std::atomic<uint64_t> appends_since_compaction_{0};
};

}  // namespace easytime::store
