#pragma once

/// \file job_manager.h
/// \brief The async lane: long-running jobs submitted via the "evaluate"
/// endpoint (OneClickEvaluate suites) and the "backtest" endpoint
/// (rolling-origin backtests, eval/backtest.h) — the job config's "type"
/// field picks the runner. Jobs wait in one bounded queue (admission
/// control: Options::queue_capacity covers every job admitted but not yet
/// started), run on a pool of worker threads (Options::concurrency), report
/// progress, and can be cancelled while queued (the job leaves the queue at
/// once) or mid-run (the pipeline polls the cancellation flag between
/// (method, dataset) pairs; the backtest between origins).
///
/// Scheduling: a free worker takes the oldest queued job whose job_key is
/// not running. Two jobs with the same job_key share a checkpoint store, so
/// they never run concurrently and start in submit order; jobs on other
/// keys pass them meanwhile.
///
/// Threads: a job's worker drives its run and fans pairs (or origins) out on
/// the process pool (GlobalThreadPool), which every running job shares. A
/// lone job gets the whole pool; concurrent jobs split it by whichever
/// claims idle workers first, and between them never evaluate on more
/// threads than the pool's workers plus the job workers driving them.
///
/// Crash safety: with a checkpoint directory configured, each job_key owns
/// a crash-safe record store at `<dir>/<job_key>.ckpt/` (storage engine,
/// DESIGN.md §9). A worker appends and syncs each successfully evaluated
/// (method, dataset) record — or, for backtest jobs, each finished forecast
/// origin — and compacts every 64 records (snapshot + covered-segment
/// deletion) so very large suites don't grow an unbounded log. A job
/// resubmitted with the same "job_key" — after a cancel, a crash, or on a
/// fresh server pointed at the same directory — recovers snapshot + WAL
/// tail (torn tails are truncated to the valid prefix), splices the records
/// into the run, and only evaluates the remainder. Failed pairs are
/// deliberately not checkpointed, so a resume retries them. When a job
/// completes, a terminal marker is appended and the checkpoint removed;
/// Start() sweeps orphaned checkpoints whose persisted status is terminal
/// (a crash between marker and removal).

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/result.h"
#include "core/easytime.h"

namespace easytime::serve {

/// Lifecycle of an evaluation job.
enum class JobState { kQueued, kRunning, kDone, kFailed, kCancelled };

/// Wire name of a job state ("queued", "running", ...).
const char* JobStateName(JobState s);

/// \brief Owns the evaluation job queue and its worker pool.
class JobManager {
 public:
  struct Options {
    size_t queue_capacity = 8;   ///< max jobs admitted but not yet started
    std::string checkpoint_dir;  ///< "" disables checkpointing
    size_t concurrency = 1;      ///< worker threads (jobs run at once)
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
  /// Jobs admitted but not yet started.
  size_t queue_depth() const;

  /// Jobs currently in kRunning (approximate for readers).
  size_t running_jobs() const;

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
    std::atomic<bool> cancel{false};
    std::atomic<size_t> done{0};
    std::atomic<size_t> total{0};
    easytime::Json result;  ///< summary, set when state == kDone
    Status error;           ///< set when state == kFailed
  };

  void WorkerLoop();
  /// Removes the oldest queued job whose key is not running from the queue
  /// and marks it running; nullptr when there is none (caller holds mu_).
  Job* TakeRunnableLocked();
  /// The "evaluate" runner (OneClickEvaluate + RunRecord checkpoints).
  void RunEvaluateJob(Job* job);
  /// The "backtest" runner: rolling-origin backtest over one stored
  /// dataset, streaming each finished OriginEval into the checkpoint store
  /// (keyed by ladder index) so a killed job resumes mid-ladder.
  void RunBacktestJob(Job* job);
  /// Sets the hooks both runners share: cancellation, progress and the
  /// config's "deadline_ms".
  template <typename Hooks>
  void WireCommonHooks(Job* job, Hooks* hooks) const;
  /// Adds \p records spliced in from a checkpoint to the stats.
  void CountResumed(size_t records);
  /// Records \p job's terminal state from its run's \p status: done with
  /// \p result (removing its checkpoint), cancelled, or failed.
  void Finish(Job* job, const Status& status,
              easytime::Json result = easytime::Json());
  easytime::Json JobJsonLocked(const Job& job) const;

  /// Removes checkpoint stores whose persisted status is terminal — a
  /// completed job crashed between its terminal marker and the checkpoint
  /// removal (caller holds mu_).
  void SweepOrphanedCheckpointsLocked();

  core::EasyTime* system_;
  Options options_;
  mutable std::mutex mu_;  ///< guards every field below and Job::state
  /// Signalled when a job is queued, a running job ends, or on Shutdown.
  std::condition_variable cv_;
  std::deque<uint64_t> queued_;  ///< admitted, not started; oldest first
  std::map<uint64_t, std::unique_ptr<Job>> jobs_;
  uint64_t next_id_ = 1;
  Stats stats_;
  size_t num_running_ = 0;
  std::set<std::string> active_keys_;  ///< keys with a job in kRunning
  std::vector<std::thread> workers_;
  bool started_ = false;
  bool shutdown_ = false;
};

}  // namespace easytime::serve
