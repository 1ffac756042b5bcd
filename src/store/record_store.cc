#include "store/record_store.h"

#include <filesystem>
#include <system_error>

#include "common/logging.h"
#include "store/snapshot.h"

namespace easytime::store {

namespace fs = std::filesystem;

RecordStore::RecordStore(std::string dir, RecordStoreOptions options,
                         std::unique_ptr<Wal> wal, uint64_t snapshot_seq)
    : dir_(std::move(dir)), options_(options), wal_(std::move(wal)) {
  snapshot_seq_.store(snapshot_seq, std::memory_order_relaxed);
}

easytime::Result<std::unique_ptr<RecordStore>> RecordStore::Open(
    const std::string& dir, const RecordStoreOptions& options,
    RecordStoreRecovery* recovery) {
  if (options.keep_snapshots == 0) {
    return easytime::Status::InvalidArgument(
        "RecordStoreOptions::keep_snapshots must be >= 1");
  }
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return easytime::Status::IOError("cannot create store directory " + dir +
                                     ": " + ec.message());
  }
  // A crash between snapshot write and rename leaves a *.tmp behind.
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file() &&
        entry.path().extension().string() == ".tmp") {
      fs::remove(entry.path(), ec);
    }
  }

  RecordStoreRecovery local;
  RecordStoreRecovery* rec = recovery ? recovery : &local;
  *rec = RecordStoreRecovery{};

  auto snap_or = LoadLatestSnapshot(dir);
  if (snap_or.ok()) {
    rec->has_snapshot = true;
    rec->snapshot = std::move(snap_or.ValueOrDie().state);
    rec->snapshot_seq = snap_or.ValueOrDie().seq;
    rec->corrupt_snapshots = snap_or.ValueOrDie().corrupt_skipped;
  } else if (!snap_or.status().IsNotFound()) {
    return snap_or.status();
  }

  WalOptions wal_options;
  wal_options.segment_bytes = options.segment_bytes;
  wal_options.sync_every_append = options.sync_every_append;
  WalRecoveryStats stats;
  auto wal_or = Wal::Open(
      dir, wal_options, rec->snapshot_seq,
      [rec](uint64_t seq, std::string&& payload) {
        rec->tail.emplace_back(seq, std::move(payload));
      },
      &stats);
  EASYTIME_RETURN_IF_ERROR(wal_or.status());
  std::unique_ptr<Wal> wal = std::move(wal_or.ValueOrDie());
  rec->last_seq = wal->last_seq();
  rec->bytes_dropped = stats.bytes_dropped;
  rec->segments_dropped = stats.segments_dropped;
  if (rec->bytes_dropped > 0 || rec->corrupt_snapshots > 0) {
    EASYTIME_LOG(Warning) << "store: recovered " << dir << " dropping "
                          << rec->bytes_dropped << " corrupt WAL bytes, "
                          << rec->segments_dropped << " segments, "
                          << rec->corrupt_snapshots << " snapshots";
  }
  return std::unique_ptr<RecordStore>(new RecordStore(
      dir, options, std::move(wal), rec->snapshot_seq));
}

easytime::Result<uint64_t> RecordStore::Append(std::string_view payload) {
  auto seq_or = wal_->Append(payload);
  if (seq_or.ok()) {
    appends_since_compaction_.fetch_add(1, std::memory_order_relaxed);
  }
  return seq_or;
}

easytime::Status RecordStore::Sync() { return wal_->Sync(); }

easytime::Status RecordStore::Compact(std::string_view state) {
  return Compact(state, wal_->last_seq());
}

easytime::Status RecordStore::Compact(std::string_view state,
                                      uint64_t covered_seq) {
  std::lock_guard<std::mutex> lock(compact_mu_);
  if (covered_seq < snapshot_seq_.load(std::memory_order_relaxed)) {
    return easytime::Status::OK();  // a newer snapshot already covers it
  }
  // Make every record the snapshot claims to cover durable first, so a
  // snapshot never references appends the WAL could still lose.
  EASYTIME_RETURN_IF_ERROR(wal_->Sync());
  EASYTIME_RETURN_IF_ERROR(WriteSnapshot(dir_, covered_seq, state));
  snapshot_seq_.store(covered_seq, std::memory_order_relaxed);
  appends_since_compaction_.store(0, std::memory_order_relaxed);
  auto oldest_or = PruneSnapshots(dir_, options_.keep_snapshots);
  EASYTIME_RETURN_IF_ERROR(oldest_or.status());
  const uint64_t oldest_retained = oldest_or.ValueOrDie();
  if (oldest_retained > 0) {
    // Only segments already covered by the oldest retained snapshot are
    // redundant; the newest image alone must never gate deletion.
    EASYTIME_RETURN_IF_ERROR(wal_->RemoveSegmentsCoveredBy(oldest_retained));
  }
  return easytime::Status::OK();
}

}  // namespace easytime::store
