#pragma once

/// \file knowledge_store.h
/// \brief Durable persistence for the KnowledgeBase on top of the storage
/// engine (DESIGN.md §9). The snapshot state is one JSON object
/// {"datasets": [...], "methods": [...], "results": [...]}; each WAL record
/// is one JSON object tagged with a "type" ("results" rows appended by an
/// evaluation). Open() recovers snapshot + tail and seeds the KnowledgeBase
/// through its single-version-bump Restore(), so a server restarted against
/// a populated store answers queries without re-running any evaluation.
/// Every append is durable before AppendResults returns.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/result.h"
#include "knowledge/knowledge_base.h"
#include "store/record_store.h"

namespace easytime::knowledge {

/// Row (de)serialization used by the snapshot and WAL record formats.
easytime::Json DatasetMetaToJson(const DatasetMeta& meta);
easytime::Result<DatasetMeta> DatasetMetaFromJson(const easytime::Json& j);
easytime::Json MethodMetaToJson(const MethodMeta& meta);
easytime::Result<MethodMeta> MethodMetaFromJson(const easytime::Json& j);
easytime::Json ResultEntryToJson(const ResultEntry& entry);
easytime::Result<ResultEntry> ResultEntryFromJson(const easytime::Json& j);

/// \brief The KnowledgeBase's durable backing store.
///
/// Thread safety: AppendResults/Checkpoint serialize KnowledgeBase rows via
/// its raw accessors, so the caller must hold whatever lock excludes
/// concurrent KB mutators (EasyTime calls them from its exclusive commit
/// phase; Open runs before concurrency begins).
class KnowledgeStore {
 public:
  struct Options {
    std::string dir;
    /// Compact (snapshot + delete covered WAL segments) after this many WAL
    /// appends; 0 disables automatic compaction.
    size_t compact_every = 32;
  };

  /// What Open() found on disk.
  struct OpenInfo {
    bool restored = false;  ///< kb was seeded from persisted state
    size_t datasets = 0;
    size_t methods = 0;
    size_t results = 0;
    store::RecordStoreRecovery recovery;
  };

  /// \brief Opens (creating if absent) the store at options.dir. When
  /// persisted state exists, rebuilds it (snapshot, then surviving WAL tail
  /// in order) and seeds \p kb with one Restore() call.
  static easytime::Result<std::unique_ptr<KnowledgeStore>> Open(
      const Options& options, KnowledgeBase* kb, OpenInfo* info = nullptr);

  /// \brief Durably appends \p entries as one WAL record, then compacts with
  /// the full state of \p kb if compact_every appends have accumulated.
  /// Empty \p entries is a no-op.
  easytime::Status AppendResults(const std::vector<ResultEntry>& entries,
                                 const KnowledgeBase& kb);

  /// Forces a snapshot of \p kb now (e.g. right after initial seeding).
  easytime::Status Checkpoint(const KnowledgeBase& kb);

  uint64_t last_seq() const { return store_->last_seq(); }
  uint64_t snapshot_seq() const { return store_->snapshot_seq(); }
  const std::string& dir() const { return store_->dir(); }

 private:
  KnowledgeStore(Options options, std::unique_ptr<store::RecordStore> store);

  const Options options_;
  std::unique_ptr<store::RecordStore> store_;
};

}  // namespace easytime::knowledge
