#pragma once

/// \file append_log.h
/// \brief Durable streaming-ingestion log (DESIGN.md §13). Appended
/// observations are user data — unlike the generated benchmark suite they
/// cannot be regenerated — so every accepted append is WAL-framed through
/// the storage engine before it is acknowledged. Recovery replays the log
/// on top of the deterministic base suite: base datasets come back at their
/// generated length, then the log's snapshot tails + WAL records re-extend
/// them to exactly the acknowledged state (fork+SIGKILL-tested: a torn tail
/// record truncates to the last acknowledged append, never a torn series).
///
/// Ordering contract: appends to ONE dataset must be serialized by the
/// caller (the core facade holds a per-dataset append mutex), which makes
/// WAL order equal start-offset order per dataset. Appends to DIFFERENT
/// datasets may run concurrently — every append is durable before it is
/// acknowledged, and concurrent appenders share one fsync per group commit
/// (Wal::Sync), which is where the streaming throughput comes from.

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/result.h"
#include "store/record_store.h"
#include "tsdata/repository.h"

namespace easytime::tsdata {

/// One acknowledged append: a batch of observations for every channel of
/// \p dataset, starting at offset \p start (== the series length when the
/// append was accepted).
struct AppendRecord {
  std::string dataset;
  size_t start = 0;
  std::vector<std::vector<double>> channels;  ///< one inner vector/channel

  easytime::Json ToJson() const;
  static easytime::Result<AppendRecord> FromJson(const easytime::Json& j);
};

/// Tuning for one log instance.
struct AppendLogOptions {
  std::string dir;
  /// Compact (snapshot cumulative tails + drop covered WAL segments) after
  /// this many appends; 0 disables automatic compaction.
  size_t compact_every = 256;
};

/// \brief The append log. Open() replays recovered state onto a repository;
/// Append() durably logs one batch (the caller applies it in memory).
class AppendLog {
 public:
  struct ReplayStats {
    size_t applied = 0;  ///< records/tails extended onto repository series
    size_t skipped = 0;  ///< duplicates (already covered) or unknown datasets
  };

  /// \brief Opens (creating) the log and replays surviving appends onto
  /// \p repo. Fails with IOError when a surviving record leaves a gap —
  /// acknowledged data depending on data that did not survive — rather than
  /// silently tearing a series.
  static easytime::Result<std::unique_ptr<AppendLog>> Open(
      const AppendLogOptions& options, Repository* repo,
      ReplayStats* stats = nullptr);

  /// \brief Durably appends one record; returns after the record is on
  /// disk. Safe to call concurrently for different datasets; same-dataset
  /// calls must be externally serialized in start order (see the ordering
  /// contract above). A refused append leaves the log's tails as they were,
  /// so the caller may retry at the same start; once the store is poisoned
  /// (store/wal.h) every append is refused until reopen, and a refused
  /// record the WAL already held may replay then.
  easytime::Status Append(const AppendRecord& record);

  /// Group-commit counters of the underlying WAL: fsyncs and the appends
  /// they acknowledged.
  store::WalGroupCommitStats group_commit_stats() const {
    return store_->group_commit_stats();
  }

 private:
  AppendLog(AppendLogOptions options,
            std::unique_ptr<store::RecordStore> store)
      : options_(std::move(options)), store_(std::move(store)) {}

  /// Cumulative appended suffix of one dataset: the series was base-length
  /// \p base when its first append arrived; \p channels holds everything
  /// appended since. This is what compaction snapshots.
  struct Tail {
    size_t base = 0;
    std::vector<std::vector<double>> channels;
  };

  std::string EncodeTailsLocked() const;
  easytime::Status MaybeCompact();

  const AppendLogOptions options_;
  std::unique_ptr<store::RecordStore> store_;
  mutable std::mutex mu_;               // guards tails_
  std::map<std::string, Tail> tails_;   // dataset -> appended suffix
};

}  // namespace easytime::tsdata
