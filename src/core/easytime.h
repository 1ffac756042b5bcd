#pragma once

/// \file easytime.h
/// \brief The EasyTime system facade — the public API mirroring the paper's
/// four modules (Fig. 1): the TFB benchmark substrate, One-Click Evaluation,
/// the Automated Ensemble, and natural-language Q&A.
///
/// Typical use:
/// \code
///   easytime::core::EasyTime::Options opt;        // defaults are sensible
///   EASYTIME_ASSIGN_OR_RETURN(auto system, easytime::core::EasyTime::Create(opt));
///   auto report = system->OneClickEvaluate(config_json);
///   auto rec    = system->Recommend("traffic_u0");
///   auto resp   = system->Ask("top-5 methods by mae on traffic datasets?");
/// \endcode

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/result.h"
#include "ensemble/auto_ensemble.h"
#include "ensemble/foundation.h"
#include "eval/evaluator.h"
#include "knowledge/knowledge_base.h"
#include "knowledge/knowledge_store.h"
#include "pipeline/runner.h"
#include "qa/qa_engine.h"
#include "tsdata/append_log.h"
#include "tsdata/repository.h"

namespace easytime::core {

/// \brief The assembled EasyTime system.
///
/// Thread safety (the contract the serving layer builds on): after Create
/// returns, Recommend/RecommendForValues/EvaluateWithEnsemble/Ask/AskSql may
/// be called concurrently from any number of threads. The evaluation entry
/// points run their pipeline under a shared lock too — only the short
/// commit phase (knowledge-base append + Q&A rebuild) takes the facade's
/// exclusive lock, so long evaluations do not stall concurrent reads.
/// Mutating the repository via repository() is only safe before concurrent
/// use begins; once serving, AppendObservations is the one sanctioned way to
/// grow a stored series (exclusive lock + durable append log).
class EasyTime {
 public:
  /// System bring-up options.
  struct Options {
    tsdata::SuiteSpec suite;            ///< benchmark data suite to generate
    eval::EvalConfig seed_eval;         ///< protocol for seeding the KB
    std::vector<std::string> seed_methods;  ///< empty = a fast default set
    /// The Automated Ensemble's parameters. Its offline phase (TS2Vec and
    /// classifier training) runs on the first call that needs it, not here.
    ensemble::AutoEnsembleOptions ensemble;
    /// Pretrain and register the zero-shot "ts2vec_foundation" method on the
    /// generated corpus (the method layer's foundation-model slot).
    bool pretrain_foundation = false;
    ensemble::FoundationOptions foundation;

    /// \brief Durable knowledge persistence (DESIGN.md §9). When set, Create
    /// opens a storage engine in this directory: an empty store is seeded by
    /// the pipeline run and snapshotted; a populated one restores the
    /// knowledge base (snapshot + WAL tail) and SKIPS the seeding
    /// evaluation, and every committed evaluation report is appended to the
    /// WAL durably (acked means fsync'd; concurrent appends share fsyncs).
    /// Empty = in-memory only (the historical behavior).
    std::string store_dir;
    /// Compact the store (snapshot + delete covered WAL segments) after
    /// this many appended reports; 0 disables automatic compaction.
    size_t store_compact_every = 32;
    /// Compact the streaming append log after this many appended batches;
    /// 0 disables automatic compaction.
    size_t append_compact_every = 256;

    Options();
  };

  /// \brief Builds the system: generates (or restores) the benchmark suite,
  /// runs the pipeline to seed the knowledge base (or restores it), and
  /// stands up the Q&A engine. It does no Automated Ensemble training: the
  /// offline phase runs once, on the first Recommend, RecommendForValues or
  /// EvaluateWithEnsemble, over the repository and knowledge base as they
  /// stand at that call.
  static easytime::Result<std::unique_ptr<EasyTime>> Create(
      const Options& options);

  // ----- module 1/2: benchmark + one-click evaluation ----------------------

  /// The dataset repository (add user datasets here before evaluating).
  tsdata::Repository* repository() { return &repository_; }
  const tsdata::Repository& repository() const { return repository_; }

  /// The accumulated benchmark knowledge.
  const knowledge::KnowledgeBase& knowledge() const { return kb_; }

  /// True when Create restored the knowledge base from a populated store
  /// instead of running the seeding pipeline (the serving layer uses this
  /// to warm its result cache at startup).
  bool restored_from_store() const { return restored_from_store_; }

  /// The durable backing store, or null when store_dir was empty.
  knowledge::KnowledgeStore* knowledge_store() { return store_.get(); }

  /// \brief One-click evaluation from a configuration JSON (the paper's
  /// "edit the configuration file, then one click"). Results are appended
  /// to the knowledge base.
  easytime::Result<pipeline::BenchmarkReport> OneClickEvaluate(
      const easytime::Json& config_json);

  /// OneClickEvaluate with pipeline hooks (cancellation + progress) — the
  /// serving layer's async evaluation jobs use this. A cancelled run leaves
  /// the knowledge base untouched and returns Status::Cancelled.
  easytime::Result<pipeline::BenchmarkReport> OneClickEvaluate(
      const easytime::Json& config_json, const pipeline::RunHooks& hooks);

  /// One-click "run this method on all datasets".
  easytime::Result<pipeline::BenchmarkReport> EvaluateMethodEverywhere(
      const std::string& method_name,
      const easytime::Json& method_config = easytime::Json::Object());

  // ----- streaming ingestion (DESIGN.md §13) --------------------------------

  /// What an accepted append did.
  struct AppendOutcome {
    size_t appended = 0;  ///< observations added per channel
    size_t length = 0;    ///< new series length
    bool characteristics_refreshed = false;
    uint64_t data_version = 0;  ///< KnowledgeBase::DataVersion after
  };

  /// \brief Durably appends a batch of observations to a stored dataset:
  /// one inner vector per channel, equal non-zero lengths, finite values.
  /// \p expected_start (when set) is the index the first appended value must
  /// land on — a stale offset is rejected with InvalidArgument (lower =
  /// duplicate/already-ingested, higher = out-of-order/gap), giving
  /// at-most-once semantics to retrying producers. The batch is WAL-logged
  /// (ack-after-durable, group-commit across datasets) before the in-memory
  /// series and the KB's per-series metadata are updated. Same-dataset
  /// appends serialize on a per-dataset mutex; different datasets proceed
  /// concurrently, as do all readers (queries hold the shared lock).
  easytime::Result<AppendOutcome> AppendObservations(
      const std::string& dataset,
      const std::vector<std::vector<double>>& channels,
      std::optional<size_t> expected_start = std::nullopt);

  /// \brief Copies one channel of a stored dataset under the shared lock —
  /// the safe way to read series values that may be growing concurrently
  /// (returns the Series copy so period hints travel with the values).
  easytime::Result<tsdata::Series> SeriesSnapshot(const std::string& dataset,
                                                  size_t channel = 0) const;

  /// The streaming append log, or null when store_dir was empty.
  tsdata::AppendLog* append_log() { return append_log_.get(); }

  // ----- module 3: automated ensemble --------------------------------------

  /// \brief Recommends top-k methods for a repository dataset (Fig. 4).
  /// The first call of the three ensemble entry points trains the engine
  /// (concurrent first calls train once; the others wait for it). A failed
  /// training returns Unavailable carrying the cause and is retried by the
  /// next call; a successful one is final.
  easytime::Result<ensemble::Recommendation> Recommend(
      const std::string& dataset_name, size_t k = 0) const;

  /// Recommends for raw user-provided values (the "Upload Dataset" path).
  easytime::Result<ensemble::Recommendation> RecommendForValues(
      const std::vector<double>& values, size_t k = 0) const;

  /// \brief Builds and evaluates an automated ensemble on a dataset,
  /// returning its metrics alongside each member's individual metrics —
  /// the comparison the demo frontend displays (Fig. 4, labels 9/10).
  struct EnsembleEvaluation {
    eval::EvalResult ensemble;
    std::vector<std::pair<std::string, eval::EvalResult>> members;
    std::vector<double> weights;
  };
  easytime::Result<EnsembleEvaluation> EvaluateWithEnsemble(
      const std::string& dataset_name, const eval::EvalConfig& config) const;

  // ----- module 4: natural-language Q&A -------------------------------------

  /// Answers a natural-language question over the benchmark knowledge.
  easytime::Result<qa::QaResponse> Ask(const std::string& question);

  /// \brief Runs raw SQL through the verified retrieval path. The deadline
  /// bounds long-running table functions (TS_FORECAST/TS_FORECAST_BY).
  easytime::Result<qa::QaResponse> AskSql(
      const std::string& sql,
      const easytime::Deadline& deadline = easytime::Deadline());

  // ----- replication (DESIGN.md §14) ----------------------------------------

  /// \brief Applies result rows decoded from a shipped WAL segment to a live
  /// follower: merges them into the knowledge base through a single
  /// KnowledgeBase::Restore (one version bump per batch) and rebuilds the
  /// Q&A engine, all under the exclusive facade lock. Deliberately does NOT
  /// touch this process's own store — the shipped segment bytes are already
  /// imported durably by the replication plane; writing them again through
  /// the store would fork the sequence space. Deduplication is the caller's
  /// job (the follower tracks its applied-sequence watermark). Returns the
  /// number of rows merged.
  easytime::Result<size_t> IngestReplicatedResults(
      std::vector<knowledge::ResultEntry> entries);

 private:
  EasyTime() = default;

  /// Rebuilds the Q&A engine after the knowledge base changes.
  easytime::Status RefreshQa();

  /// \brief The Automated Ensemble's one training path: trains ensemble_ on
  /// the first call, returns at once after a success, and leaves a failure
  /// to be retried by the next call. Callers hold mu_ (shared or exclusive).
  easytime::Status EnsureEnsembleTrained() const;

  /// Runs a parsed benchmark config and commits the report (shared lock for
  /// the run, exclusive lock for the commit).
  easytime::Result<pipeline::BenchmarkReport> RunAndCommit(
      pipeline::BenchmarkConfig config, const pipeline::RunHooks& hooks);

  /// Guards the module graph: shared for queries, exclusive for the commit
  /// phase of evaluations (kb_ append + qa_ swap).
  mutable std::shared_mutex mu_;
  tsdata::Repository repository_;
  knowledge::KnowledgeBase kb_;
  std::unique_ptr<knowledge::KnowledgeStore> store_;
  std::unique_ptr<tsdata::AppendLog> append_log_;
  /// Per-dataset append serialization (keeps WAL order == offset order per
  /// dataset; see append_log.h). Guarded by append_index_mu_; the mutexes
  /// themselves live in a node-stable map and are never removed.
  std::mutex append_index_mu_;
  std::map<std::string, std::mutex> append_mus_;
  bool restored_from_store_ = false;
  /// Written only by EnsureEnsembleTrained, under ensemble_mu_, while
  /// ensemble_trained_ is false; read only once it is true.
  mutable ensemble::AutoEnsembleEngine ensemble_;
  mutable std::mutex ensemble_mu_;
  mutable std::atomic<bool> ensemble_trained_{false};
  std::unique_ptr<qa::QaEngine> qa_;
  Options options_;
};

}  // namespace easytime::core
