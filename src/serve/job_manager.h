#pragma once

/// \file job_manager.h
/// \brief The async lane: long-running jobs submitted via the "evaluate"
/// endpoint (OneClickEvaluate suites) and the "backtest" endpoint
/// (rolling-origin backtests, eval/backtest.h) — the job config's "type"
/// field picks the runner. Jobs queue into a bounded FIFO (admission
/// control), run on a pool of worker threads (Options::concurrency, PR 4 —
/// previously a single worker), report progress, and can be cancelled while
/// queued or mid-run (the pipeline polls the cancellation flag between
/// (method, dataset) pairs; the backtest between origins).
///
/// Thread budgeting: each running job caps its pipeline at
/// Options::thread_budget concurrently evaluating threads, counting the
/// worker driving the run (0 derives cores / concurrency), so N concurrent
/// evaluations split the machine instead of each spinning up a full-width
/// pool and oversubscribing it N-fold.
///
/// Crash safety: with a checkpoint directory configured, each job_key owns
/// a crash-safe record store at `<dir>/<job_key>.ckpt/` (storage engine,
/// DESIGN.md §9). A worker appends each successfully evaluated
/// (method, dataset) record — or, for backtest jobs, each finished
/// forecast origin — to its WAL and periodically compacts
/// (snapshot + covered-segment deletion, Options::compact_every) so very
/// large suites don't grow an unbounded log. A job resubmitted with the
/// same "job_key" — after a cancel, a crash, or on a fresh server pointed
/// at the same directory — recovers snapshot + WAL tail (torn tails are
/// truncated to the valid prefix), splices the records into the run, and
/// only evaluates the remainder. Failed pairs are deliberately not
/// checkpointed, so a resume retries them. Pre-store line-JSON checkpoint
/// files are migrated transparently on first open. When a job completes, a
/// terminal marker is appended and the checkpoint removed; Start() sweeps
/// orphaned checkpoints whose persisted status is terminal (a crash
/// between marker and removal). Two admitted jobs with the same job_key
/// never run concurrently (they share a checkpoint store): the one a worker
/// picks up second parks until the first reaches a terminal state. Which of
/// two queued same-key jobs runs first is not fixed by submit order (workers
/// race for them); jobs parked behind a running one start in parking order.

#include <atomic>
#include <cstdint>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/bounded_queue.h"
#include "common/json.h"
#include "common/result.h"
#include "core/easytime.h"
#include "eval/backtest.h"
#include "pipeline/runner.h"
#include "store/record_store.h"

namespace easytime::serve {

/// Lifecycle of an evaluation job.
enum class JobState { kQueued, kRunning, kDone, kFailed, kCancelled };

/// Wire name of a job state ("queued", "running", ...).
const char* JobStateName(JobState s);

/// \brief Owns the evaluation job queue and its worker pool.
class JobManager {
 public:
  struct Options {
    size_t queue_capacity = 8;   ///< max queued-but-not-started jobs
    std::string checkpoint_dir;  ///< "" disables checkpointing
    size_t checkpoint_every = 1; ///< flush after this many new records
    size_t concurrency = 1;      ///< worker threads (jobs run at once)
    /// Per-job pipeline thread cap. 0 splits the machine evenly:
    /// max(1, cores / concurrency), where "cores" honors the
    /// EASYTIME_NUM_THREADS override.
    size_t thread_budget = 0;
    /// Compact a job's checkpoint store (snapshot + delete covered WAL
    /// segments) after this many appended records; 0 disables compaction.
    size_t compact_every = 64;
  };

  struct Stats {
    uint64_t submitted = 0;
    uint64_t rejected = 0;   ///< admission-control rejections (queue full)
    uint64_t completed = 0;
    uint64_t failed = 0;
    uint64_t cancelled = 0;
    uint64_t resumed_records = 0;  ///< pairs spliced in from checkpoints
    uint64_t peak_running = 0;     ///< max jobs observed running at once
    uint64_t swept_checkpoints = 0;  ///< orphaned terminal checkpoints removed
  };

  /// \param system the facade evaluations run against (not owned)
  JobManager(core::EasyTime* system, Options options);
  JobManager(core::EasyTime* system, size_t queue_capacity);
  ~JobManager();

  /// Starts the worker pool (idempotent).
  void Start();

  /// \brief Drains the lane: in-flight jobs (if any) run to completion,
  /// jobs still queued are marked cancelled, and the workers exit. Further
  /// submissions are rejected.
  void Shutdown();

  /// \brief Admits an evaluation job. Returns its id, or Unavailable when
  /// the queue is at capacity or the lane is shut down. The config may
  /// carry a "job_key" string (checkpoint identity; derived from the
  /// canonical config when absent) and a "deadline_ms" budget for the run.
  easytime::Result<uint64_t> Submit(easytime::Json config);

  /// \brief Job status as a response payload: {"job", "state", "done",
  /// "total", and — depending on state — "result" or "error"}.
  easytime::Result<easytime::Json> StatusJson(uint64_t job_id) const;

  /// \brief Requests cancellation. A queued job is cancelled immediately; a
  /// running job stops at its next pipeline checkpoint. Terminal jobs are
  /// left as they are (the returned payload shows the final state).
  easytime::Result<easytime::Json> Cancel(uint64_t job_id);

  Stats stats() const;
  size_t queue_depth() const { return pending_.size(); }

  /// Jobs currently in kRunning (approximate for readers).
  size_t running_jobs() const;

  /// \brief The pipeline thread cap each running job gets
  /// (RunHooks::max_threads). Exposed for tests and capacity planning.
  size_t PerJobThreadBudget() const;

  /// Checkpoint identity of an evaluate config: its "job_key" string, or a
  /// hash of the canonicalized config. Exposed for tests.
  static std::string JobKey(const easytime::Json& config);

  /// The checkpoint store directory for \p job_key ("" when checkpointing
  /// is off).
  std::string CheckpointPath(const std::string& job_key) const;

 private:
  struct Job {
    uint64_t id = 0;
    easytime::Json config;
    std::string job_key;
    JobState state = JobState::kQueued;
    std::shared_ptr<std::atomic<bool>> cancel =
        std::make_shared<std::atomic<bool>>(false);
    std::atomic<size_t> done{0};
    std::atomic<size_t> total{0};
    easytime::Json result;  ///< summary, set when state == kDone
    Status error;           ///< set when state == kFailed
  };

  void WorkerLoop();
  /// Runs \p id, then any jobs parked behind it on the same job_key.
  void ProcessJob(uint64_t id);
  void RunJob(Job* job, const std::shared_ptr<std::atomic<bool>>& cancel);
  /// The "evaluate" runner (OneClickEvaluate + RunRecord checkpoints).
  void RunEvaluateJob(Job* job,
                      const std::shared_ptr<std::atomic<bool>>& cancel);
  /// The "backtest" runner: rolling-origin backtest over one stored
  /// dataset, streaming each finished OriginEval into the checkpoint store
  /// (keyed by ladder index) so a killed job resumes mid-ladder.
  void RunBacktestJob(Job* job,
                      const std::shared_ptr<std::atomic<bool>>& cancel);
  easytime::Json JobJsonLocked(const Job& job) const;
  /// Next job parked behind \p key, if any (caller holds mu_).
  std::optional<uint64_t> PopWaitingLocked(const std::string& key);

  /// \brief Opens (recovering or creating) the checkpoint store at \p path
  /// and fills \p completed with the recovered records. A pre-store
  /// line-JSON checkpoint file at the same path is migrated into the new
  /// format first.
  easytime::Result<std::unique_ptr<store::RecordStore>> OpenCheckpoint(
      const std::string& path,
      std::map<std::string, pipeline::RunRecord>* completed,
      size_t* loaded) const;

  /// Backtest counterpart of OpenCheckpoint: records are OriginEval JSON
  /// keyed by ladder index; snapshots hold {"origins": [...]}.
  easytime::Result<std::unique_ptr<store::RecordStore>> OpenBacktestCheckpoint(
      const std::string& path, std::map<size_t, eval::OriginEval>* completed,
      size_t* loaded) const;

  /// Removes checkpoint stores whose persisted status is terminal — a
  /// completed job crashed between its terminal marker and the checkpoint
  /// removal (caller holds mu_).
  void SweepOrphanedCheckpointsLocked();

  core::EasyTime* system_;
  Options options_;
  BoundedQueue<uint64_t> pending_;
  mutable std::mutex mu_;  ///< guards jobs_, next_id_, stats_, state fields
  std::map<uint64_t, std::unique_ptr<Job>> jobs_;
  uint64_t next_id_ = 1;
  Stats stats_;
  size_t num_running_ = 0;
  /// Keys with a job in kRunning; a popped job whose key is active parks in
  /// waiting_ and is resumed by the worker that finishes the active job.
  std::set<std::string> active_keys_;
  std::map<std::string, std::deque<uint64_t>> waiting_;
  std::vector<std::thread> workers_;
  bool started_ = false;
  std::atomic<bool> shutdown_{false};
};

}  // namespace easytime::serve
