#pragma once

/// \file wal.h
/// \brief Write-ahead log: an ordered chain of CRC32-framed records spread
/// across rotating segment files (DESIGN.md §9). Appends are sequential
/// writes to the active segment; recovery rebuilds the chain by scanning
/// segments in order and truncates away any torn or corrupt suffix, so a
/// crash mid-append loses at most the record being written.
///
/// On-disk layout inside a store directory:
///   wal-<start_seq, 16 hex digits>.log
/// Segment file = 16-byte header (8-byte magic "EZTWAL01" + u64 start_seq,
/// little-endian) followed by records:
///   u32 payload_len | u32 crc32(seq_le || payload) | u64 seq | payload
/// Sequence numbers increase by exactly 1 across the whole chain; a gap, a
/// checksum mismatch, or a short frame ends recovery at that point (the file
/// is truncated to the valid prefix and later segments are deleted).
///
/// Durability has one path, Sync(), and the log starts no thread. Callers
/// group-commit their own writes: the first caller whose records are not yet
/// durable leads one fsync covering every record written so far, and callers
/// arriving while it runs wait for it. With sync_every_append, Append ends
/// in that Sync() (DESIGN.md §10).
///
/// Failure has one rule too: any failed frame write or fsync (Sync's, a
/// durable Append's, or a segment-close one) poisons the log with the first
/// error. Every later Append and Sync returns that error until the log is
/// reopened, and reopening recovers the CRC-valid prefix on disk. A record
/// is acknowledged only by a successful fsync that finished before the
/// poisoning; a refused record may still come back on reopen.

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace easytime::store {

/// Tuning for one log instance.
struct WalOptions {
  /// Rotate to a fresh segment once the active one reaches this many bytes.
  size_t segment_bytes = 1 << 20;
  /// Make every append durable before it returns (Append ends with Sync()).
  /// Off, callers write a buffered run of records and close it with one
  /// Sync() — the bulk-write path.
  bool sync_every_append = false;
};

/// Observed group-commit activity (for tests and benchmarks).
struct WalGroupCommitStats {
  uint64_t batches = 0;  ///< successful durability fsyncs
  uint64_t records = 0;  ///< records acknowledged by those fsyncs
};

/// What recovery found and repaired while opening a log.
struct WalRecoveryStats {
  uint64_t records_replayed = 0;  ///< records handed to the replay callback
  uint64_t records_skipped = 0;   ///< valid records at or below after_seq
  uint64_t bytes_dropped = 0;     ///< torn/corrupt suffix truncated away
  uint64_t segments_dropped = 0;  ///< segments deleted past a corruption
  uint64_t segments_scanned = 0;
};

/// \brief One validated WAL segment file — the unit of replication shipping
/// (DESIGN.md §14). `valid_bytes` is the longest prefix whose CRC-framed
/// record chain checks out; anything past it is a torn tail from a crash
/// mid-append and must never ship.
struct WalSegmentInfo {
  std::string file;          ///< basename, wal-<start_seq>.log
  std::string path;          ///< full path (empty for in-memory images)
  uint64_t start_seq = 0;    ///< first record's sequence number
  uint64_t last_seq = 0;     ///< last valid record (start_seq - 1 if none)
  uint64_t valid_bytes = 0;  ///< header + valid record prefix
  uint64_t file_bytes = 0;   ///< on-disk size (>= valid_bytes)
  size_t records = 0;        ///< valid records in the prefix
  bool torn = false;         ///< file_bytes > valid_bytes
};

/// Receives each valid record when scanning a segment image.
using WalRecordFn =
    std::function<void(uint64_t seq, std::string_view payload)>;

/// \brief Validates one segment image named \p file (the basename carries
/// the expected start_seq): magic, header seq, and the CRC-framed record
/// chain. Returns the valid-prefix geometry; \p on_record (optional) gets
/// every record inside the valid prefix in order. Fails only on a malformed
/// name/header — a torn record tail is reported, not an error.
easytime::Result<WalSegmentInfo> ValidateWalSegmentImage(
    std::string_view bytes, const std::string& file,
    const WalRecordFn& on_record = nullptr);

/// \brief Lists and validates every WAL segment file in \p dir, sorted by
/// start_seq — the export side of segment shipping. Unreadable files fail;
/// an empty or missing directory returns an empty list.
easytime::Result<std::vector<WalSegmentInfo>> ListWalSegments(
    const std::string& dir);

/// \brief Reads and validates one segment, returning exactly its valid
/// prefix (torn tails are cut before the bytes travel).
easytime::Result<std::string> ExportWalSegment(const std::string& path,
                                               const std::string& file);

/// \brief Follower-side import: validates \p bytes (torn-tail guard —
/// only the valid prefix is kept), then writes the segment durably into
/// \p dir under its canonical name via tmp + fsync + rename. Re-importing
/// a segment overwrites it (shipping is idempotent); an import whose valid
/// prefix is SHORTER than the existing file is rejected so a stale re-ship
/// can never roll durable records back.
easytime::Result<WalSegmentInfo> ImportWalSegment(const std::string& dir,
                                                  const std::string& file,
                                                  std::string_view bytes);

/// \brief The segment-rotating write-ahead log. All methods are thread-safe.
class Wal {
 public:
  /// Receives each recovered record in sequence order during Open.
  using ReplayFn = std::function<void(uint64_t seq, std::string&& payload)>;

  /// \brief Opens (creating \p dir if needed) and recovers the log. Every
  /// surviving record with seq > \p after_seq is passed to \p replay (which
  /// may be null) in order; the torn/corrupt suffix, if any, is truncated
  /// from disk so subsequent appends extend the valid prefix.
  static easytime::Result<std::unique_ptr<Wal>> Open(
      const std::string& dir, const WalOptions& options, uint64_t after_seq,
      const ReplayFn& replay, WalRecoveryStats* stats = nullptr);

  ~Wal();
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// \brief Appends one record, returning its sequence number. Fault point
  /// "store.append" refuses before any byte is written and does not poison
  /// the log; a failed segment creation or frame write poisons it. With
  /// sync_every_append the record is durable when this returns ok, and a
  /// failed fsync fails the call even when it finished before this call
  /// reached Sync (fault point "store.append_written" sits between the write
  /// and the Sync).
  easytime::Result<uint64_t> Append(std::string_view payload);

  /// \brief Durability point: makes every record appended before the call
  /// durable. The one fsync path of the log (fault point "store.fsync").
  /// Group commit: when an fsync is already running the caller waits for
  /// it; otherwise the caller leads one fsync of the active segment that
  /// acknowledges every record written so far, including other callers'.
  /// A failed fsync poisons the log; a poisoned log fails every call.
  easytime::Status Sync();

  /// \brief Deletes the longest prefix of segments whose records all have
  /// seq <= \p seq — the compaction path once a snapshot covers them. The
  /// active segment is closed first if it is fully covered (appends then
  /// start a fresh segment).
  easytime::Status RemoveSegmentsCoveredBy(uint64_t seq);

  /// Highest sequence number in the log (0 = empty).
  uint64_t last_seq() const;

  /// Segment files currently on disk, in chain order (for tests/compaction).
  std::vector<std::string> SegmentPaths() const;

  /// Group-commit counters: durability fsyncs and the records they acked.
  WalGroupCommitStats group_commit_stats() const;

 private:
  struct Segment {
    uint64_t start_seq = 0;
    std::string path;
  };

  Wal(std::string dir, WalOptions options);

  /// Recovers the segment chain (called once from Open, pre-concurrency).
  easytime::Status Recover(uint64_t after_seq, const ReplayFn& replay,
                           WalRecoveryStats* stats);

  easytime::Status OpenFreshSegmentLocked();
  /// fsyncs and closes the active segment; a failed fsync poisons the log.
  void CloseActiveLocked();
  /// Sync() for the records up to \p seq.
  easytime::Status SyncThrough(uint64_t seq);
  /// Poisons the log with \p st unless it already is; returns the first
  /// error. Caller holds mu_.
  easytime::Status PoisonLocked(easytime::Status st);

  const std::string dir_;
  const WalOptions options_;

  mutable std::mutex mu_;
  std::vector<Segment> segments_;  ///< sorted by start_seq; back may be active
  int fd_ = -1;                    ///< active segment fd; -1 = none open
  uint64_t active_bytes_ = 0;
  uint64_t last_seq_ = 0;

  // Durability state. It lives on its own mutex so callers waiting for an
  // fsync never contend with appenders writing the next batch under mu_.
  // Lock order is mu_ -> ack_mu_, never the reverse.
  mutable std::mutex ack_mu_;
  std::condition_variable ack_cv_;  ///< signalled when an fsync finishes
  bool syncing_ = false;            ///< a leader's fsync is in flight
  uint64_t durable_seq_ = 0;        ///< records <= this are fsync'd
  WalGroupCommitStats gc_stats_;
  /// The one failure state: the first failed frame write or fsync, sticky
  /// until reopen (see the file comment). A failed fsync may leave pages
  /// marked clean that never reached disk, and a torn segment tail makes
  /// recovery drop every later segment, so no later success proves
  /// anything. Written holding mu_ and ack_mu_; read holding either.
  easytime::Status poisoned_ = easytime::Status::OK();
};

}  // namespace easytime::store
