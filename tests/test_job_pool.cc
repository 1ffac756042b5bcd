// JobManager pool semantics: several workers drain the evaluate queue,
// same-key jobs stay serialized (they share a checkpoint store) and count
// against the queue's capacity while they wait, running jobs share the one
// process pool (a lone job gets all of it), Shutdown cancels what is still
// queued, and the cancel/deadline/checkpoint-resume contract holds under
// concurrency. The soak test pushes more jobs than the pool has workers
// through a mixed cancel/deadline/success schedule and insists every one of
// them reaches a terminal state.
//
// Delay faults on "pipeline.pair" stretch job runtimes so overlap and
// cancellation windows are observable even on a single-core container; no
// assertion here depends on an upper wall-clock bound.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/json.h"
#include "common/thread_pool.h"
#include "core/easytime.h"
#include "methods/forecaster.h"
#include "methods/registry.h"
#include "serve/job_manager.h"
#include "store/record_store.h"

namespace easytime::serve {
namespace {

using namespace std::chrono_literals;

core::EasyTime* MakeSystem() {
  core::EasyTime::Options opt;
  opt.suite.univariate_per_domain = 1;
  opt.suite.multivariate_total = 1;
  opt.suite.min_length = 180;
  opt.suite.max_length = 220;
  opt.seed_eval.horizon = 12;
  opt.seed_eval.metrics = {"mae", "rmse"};
  opt.seed_methods = {"naive", "seasonal_naive", "theta", "ses", "drift"};
  opt.ensemble.top_k = 2;
  opt.ensemble.ts2vec.epochs = 3;
  opt.ensemble.ts2vec.repr_dim = 8;
  opt.ensemble.ts2vec.hidden_dim = 10;
  opt.ensemble.ts2vec.depth = 2;
  opt.ensemble.classifier.epochs = 80;
  auto system = core::EasyTime::Create(opt);
  EXPECT_TRUE(system.ok()) << system.status().ToString();
  return system.ok() ? system->release() : nullptr;
}

/// A small evaluate config with an explicit checkpoint identity.
Json EvalConfig(const std::string& job_key) {
  auto config = Json::Parse(R"({
    "methods": ["naive", "drift"],
    "evaluation": {"strategy": "fixed", "horizon": 8, "metrics": ["mae"]},
    "num_threads": 1
  })");
  EXPECT_TRUE(config.ok());
  Json c = config.ok() ? *config : Json::Object();
  c.Set("job_key", job_key);
  return c;
}

std::string StateOf(const JobManager& manager, uint64_t id) {
  auto s = manager.StatusJson(id);
  return s.ok() ? s->GetString("state", "?") : "?";
}

/// A fresh checkpoint directory under the temp dir, suffixed with the pid
/// so concurrent copies of a test do not share it.
std::string FreshCheckpointDir(const std::string& name) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) /
       (name + "_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  EXPECT_TRUE(std::filesystem::create_directories(dir));
  return dir;
}

bool IsTerminal(const std::string& state) {
  return state == "done" || state == "failed" || state == "cancelled";
}

/// Polls until the job leaves queued/running (bounded; ~8s worst case).
std::string AwaitTerminal(const JobManager& manager, uint64_t id) {
  std::string state;
  for (int i = 0; i < 4000; ++i) {
    state = StateOf(manager, id);
    if (IsTerminal(state)) return state;
    std::this_thread::sleep_for(2ms);
  }
  return state;
}

class JobPoolTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { system_ = MakeSystem(); }
  static void TearDownTestSuite() {
    delete system_;
    system_ = nullptr;
  }
  void SetUp() override {
    ASSERT_NE(system_, nullptr);
    FaultRegistry::Global().DisarmAll();
  }
  void TearDown() override { FaultRegistry::Global().DisarmAll(); }

  static void ArmPairDelay(double delay_ms) {
    FaultSpec slow;
    slow.kind = FaultKind::kDelay;
    slow.delay_ms = delay_ms;
    ASSERT_TRUE(FaultRegistry::Global().Arm("pipeline.pair", slow).ok());
  }

  static core::EasyTime* system_;
};

core::EasyTime* JobPoolTest::system_ = nullptr;

// Two workers, two distinct keys: both jobs must be observed running at the
// same time, and the pool records that high-water mark.
TEST_F(JobPoolTest, TwoWorkersRunDistinctJobsConcurrently) {
  ArmPairDelay(30.0);
  JobManager::Options opt;
  opt.queue_capacity = 8;
  opt.concurrency = 2;
  JobManager manager(system_, opt);
  manager.Start();

  auto a = manager.Submit(EvalConfig("pool-a"));
  auto b = manager.Submit(EvalConfig("pool-b"));
  ASSERT_TRUE(a.ok() && b.ok());

  bool overlapped = false;
  for (int i = 0; i < 2000 && !overlapped; ++i) {
    overlapped = manager.running_jobs() == 2;
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_TRUE(overlapped) << "pool never ran both jobs at once";

  EXPECT_EQ(AwaitTerminal(manager, *a), "done");
  EXPECT_EQ(AwaitTerminal(manager, *b), "done");
  auto stats = manager.stats();
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.peak_running, 2u);
  manager.Shutdown();
}

// Soak: four times as many jobs as workers, on a mixed schedule — plain
// runs, 1 ms deadlines, cancels landing while queued, cancels landing
// mid-run. Every job must reach a terminal state, the terminal counts must
// add back up to the submissions, and the pool must never run more jobs
// than it has workers.
TEST_F(JobPoolTest, SoakMixedCancelDeadlineAndSuccessAllTerminal) {
  ArmPairDelay(20.0);
  JobManager::Options opt;
  opt.queue_capacity = 16;
  opt.concurrency = 2;
  JobManager manager(system_, opt);
  manager.Start();

  constexpr size_t kJobs = 8;
  std::vector<uint64_t> ids;
  std::vector<uint64_t> cancel_when_running;
  for (size_t i = 0; i < kJobs; ++i) {
    Json config = EvalConfig("soak-" + std::to_string(i));
    if (i % 4 == 1) config.Set("deadline_ms", 1.0);  // fails deterministically
    auto id = manager.Submit(config);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(*id);
    if (i % 4 == 2) {
      // Cancel immediately: with 20 ms per pair the job cannot have
      // finished, so it lands queued or at a mid-run cancellation point.
      ASSERT_TRUE(manager.Cancel(*id).ok());
    } else if (i % 4 == 3) {
      cancel_when_running.push_back(*id);
    }
  }

  // The mid-run cancels wait for their job to actually start.
  for (uint64_t id : cancel_when_running) {
    for (int i = 0; i < 4000; ++i) {
      std::string state = StateOf(manager, id);
      if (state != "queued") break;
      std::this_thread::sleep_for(2ms);
    }
    ASSERT_TRUE(manager.Cancel(id).ok());
  }

  for (size_t i = 0; i < kJobs; ++i) {
    std::string state = AwaitTerminal(manager, ids[i]);
    EXPECT_TRUE(IsTerminal(state))
        << "job " << ids[i] << " stuck in state " << state;
    if (i % 4 == 0) {
      EXPECT_EQ(state, "done") << "job " << ids[i];
    } else if (i % 4 == 1) {
      EXPECT_EQ(state, "failed") << "job " << ids[i];
    } else if (i % 4 == 2) {
      EXPECT_EQ(state, "cancelled") << "job " << ids[i];
    }
  }

  auto stats = manager.stats();
  EXPECT_EQ(stats.submitted, kJobs);
  EXPECT_EQ(stats.completed + stats.failed + stats.cancelled, kJobs)
      << "terminal states must account for every submission";
  EXPECT_EQ(stats.failed, 2u) << "both 1ms-deadline jobs fail";
  EXPECT_GE(stats.cancelled, 2u);
  EXPECT_LE(stats.peak_running, opt.concurrency)
      << "pool ran more jobs than it has workers";
  EXPECT_EQ(manager.queue_depth(), 0u);
  manager.Shutdown();
}

// Two jobs sharing a job_key share a checkpoint file, so they must never
// run concurrently even with idle workers — the second waits and runs after
// the first finishes (FIFO within the key).
TEST_F(JobPoolTest, SameKeyJobsSerializeOnTheirCheckpointIdentity) {
  ArmPairDelay(25.0);
  JobManager::Options opt;
  opt.queue_capacity = 8;
  opt.concurrency = 2;
  JobManager manager(system_, opt);
  manager.Start();

  auto a = manager.Submit(EvalConfig("shared-key"));
  auto b = manager.Submit(EvalConfig("shared-key"));
  ASSERT_TRUE(a.ok() && b.ok());

  EXPECT_EQ(AwaitTerminal(manager, *a), "done");
  EXPECT_EQ(AwaitTerminal(manager, *b), "done");
  EXPECT_EQ(manager.stats().completed, 2u);
  // peak_running moves under the manager's lock on every start, so any
  // overlap of the two same-key jobs shows here, whichever ran first (the
  // two free workers race for them).
  EXPECT_EQ(manager.stats().peak_running, 1u) << "same-key jobs overlapped";
  manager.Shutdown();
}

// Jobs waiting behind a running job on their key still wait in the queue:
// they count against queue_capacity and queue_depth, the submits beyond it
// are rejected, and the waiting jobs start in submit order.
TEST_F(JobPoolTest, SameKeySubmitsBeyondCapacityAreRejectedWhileTheKeyRuns) {
  ArmPairDelay(30.0);
  JobManager::Options opt;
  opt.queue_capacity = 2;
  opt.concurrency = 2;
  JobManager manager(system_, opt);
  manager.Start();

  auto running = manager.Submit(EvalConfig("busy-key"));
  ASSERT_TRUE(running.ok()) << running.status().ToString();
  for (int i = 0; i < 4000 && StateOf(manager, *running) == "queued"; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_EQ(StateOf(manager, *running), "running");

  // The idle worker cannot start any of these while busy-key runs.
  std::vector<uint64_t> accepted;
  size_t rejected = 0;
  for (int i = 0; i < 10; ++i) {
    auto id = manager.Submit(EvalConfig("busy-key"));
    if (id.ok()) {
      accepted.push_back(*id);
    } else {
      EXPECT_TRUE(id.status().IsUnavailable()) << id.status().ToString();
      ++rejected;
    }
  }
  EXPECT_EQ(accepted.size(), 2u);
  EXPECT_EQ(rejected, 8u);
  EXPECT_EQ(manager.queue_depth(), 2u);
  EXPECT_EQ(manager.stats().rejected, 8u);
  EXPECT_EQ(manager.running_jobs(), 1u);
  ASSERT_EQ(accepted.size(), 2u);

  // Once the key frees, the earlier waiting job starts first: the later one
  // never leaves the queue while the earlier is still in it (the later
  // state is read first, and no job returns to "queued").
  ASSERT_TRUE(manager.Cancel(*running).ok());
  std::string earlier = "queued";
  for (int i = 0; i < 4000 && earlier == "queued"; ++i) {
    const std::string later = StateOf(manager, accepted[1]);
    earlier = StateOf(manager, accepted[0]);
    if (earlier == "queued") {
      EXPECT_EQ(later, "queued") << "the later same-key job started first";
      std::this_thread::sleep_for(1ms);
    }
  }
  EXPECT_NE(earlier, "queued");

  for (uint64_t id : accepted) ASSERT_TRUE(manager.Cancel(id).ok());
  EXPECT_EQ(AwaitTerminal(manager, *running), "cancelled");
  for (uint64_t id : accepted) EXPECT_TRUE(IsTerminal(AwaitTerminal(manager, id)));
  EXPECT_EQ(manager.queue_depth(), 0u);
  EXPECT_EQ(manager.stats().peak_running, 1u);
  manager.Shutdown();
}

// Workers blocked on an empty queue wake up and exit on Shutdown (it joins
// them), and the shut-down lane rejects new work.
TEST_F(JobPoolTest, ShutdownWakesIdleWorkersAndRejectsLaterSubmits) {
  JobManager::Options opt;
  opt.concurrency = 3;
  JobManager manager(system_, opt);
  manager.Start();
  std::this_thread::sleep_for(20ms);  // let every worker block on the queue
  manager.Shutdown();

  auto late = manager.Submit(EvalConfig("after-shutdown"));
  EXPECT_TRUE(late.status().IsUnavailable()) << late.status().ToString();
  EXPECT_EQ(manager.stats().rejected, 1u);
  EXPECT_EQ(manager.stats().submitted, 0u);
}

// Shutdown lets the running job finish and cancels every job still queued.
TEST_F(JobPoolTest, ShutdownCancelsQueuedJobsWhileTheRunningOneFinishes) {
  ArmPairDelay(10.0);
  JobManager::Options opt;
  opt.queue_capacity = 4;
  opt.concurrency = 1;
  JobManager manager(system_, opt);
  manager.Start();

  auto a = manager.Submit(EvalConfig("drain-a"));
  auto b = manager.Submit(EvalConfig("drain-b"));
  auto c = manager.Submit(EvalConfig("drain-c"));
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  for (int i = 0; i < 4000 && StateOf(manager, *a) == "queued"; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_EQ(StateOf(manager, *a), "running");

  manager.Shutdown();  // returns once the running job has finished
  EXPECT_EQ(StateOf(manager, *a), "done");
  EXPECT_EQ(StateOf(manager, *b), "cancelled");
  EXPECT_EQ(StateOf(manager, *c), "cancelled");
  auto stats = manager.stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.cancelled, 2u);
  EXPECT_EQ(manager.queue_depth(), 0u);
}

// Producers keep submitting while the lane shuts down: every submit is
// either rejected Unavailable or admitted, and once Shutdown has returned
// every admitted job is terminal.
TEST_F(JobPoolTest, SubmitsRacingShutdownAreRejectedOrReachATerminalState) {
  JobManager::Options opt;
  opt.queue_capacity = 4;
  opt.concurrency = 2;
  JobManager manager(system_, opt);
  manager.Start();

  std::mutex mu;
  std::vector<uint64_t> accepted;
  std::atomic<size_t> other_errors{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> producers;
  for (int p = 0; p < 3; ++p) {
    producers.emplace_back([&, p]() {
      const Json config = EvalConfig("race-" + std::to_string(p));
      while (!stop.load()) {
        auto id = manager.Submit(config);
        if (id.ok()) {
          std::lock_guard<std::mutex> lock(mu);
          accepted.push_back(*id);
        } else if (!id.status().IsUnavailable()) {
          other_errors.fetch_add(1);
        }
      }
    });
  }
  std::this_thread::sleep_for(20ms);
  manager.Shutdown();
  stop.store(true);
  for (auto& t : producers) t.join();

  EXPECT_EQ(other_errors.load(), 0u);
  EXPECT_FALSE(accepted.empty());
  for (uint64_t id : accepted) {
    EXPECT_TRUE(IsTerminal(StateOf(manager, id)))
        << "job " << id << " left in state " << StateOf(manager, id);
  }
  auto stats = manager.stats();
  EXPECT_EQ(stats.submitted, accepted.size());
  EXPECT_EQ(stats.completed + stats.failed + stats.cancelled,
            stats.submitted);
  EXPECT_EQ(manager.queue_depth(), 0u);
}

// --- shared process pool -----------------------------------------------------

std::atomic<int> g_probe_inflight{0};
std::atomic<int> g_probe_peak{0};

/// Registered once as "budget_probe": tracks how many Fit calls run
/// concurrently across ALL jobs. Sleeping inside Fit widens the window so
/// the parallelism a run reaches is reliably observed.
class BudgetProbe final : public methods::Forecaster {
 public:
  Status Fit(const std::vector<double>& train,
             const methods::FitContext&) override {
    int now = g_probe_inflight.fetch_add(1) + 1;
    int prev = g_probe_peak.load();
    while (now > prev && !g_probe_peak.compare_exchange_weak(prev, now)) {
    }
    std::this_thread::sleep_for(10ms);
    last_ = train.empty() ? 0.0 : train.back();
    g_probe_inflight.fetch_sub(1);
    return Status::OK();
  }
  Result<std::vector<double>> Forecast(size_t horizon) const override {
    return std::vector<double>(horizon, last_);
  }
  std::string name() const override { return "budget_probe"; }
  methods::Family family() const override {
    return methods::Family::kStatistical;
  }

 private:
  double last_ = 0.0;
};

void RegisterBudgetProbe() {
  static const bool registered = [] {
    return methods::MethodRegistry::Global()
        .Register({"budget_probe", methods::Family::kStatistical,
                   "job pool test: counts concurrent Fit calls"},
                  [](const Json&) -> Result<methods::ForecasterPtr> {
                    return methods::ForecasterPtr(new BudgetProbe());
                  })
        .ok();
  }();
  ASSERT_TRUE(registered);
}

/// An evaluate config over every dataset with the probe method alone;
/// "num_threads" 0 lets the run use the whole process pool.
Json ProbeConfig(const std::string& job_key) {
  auto config = Json::Parse(R"({
    "methods": ["budget_probe"],
    "evaluation": {"strategy": "fixed", "horizon": 8, "metrics": ["mae"]},
    "num_threads": 0
  })");
  EXPECT_TRUE(config.ok());
  Json c = config.ok() ? *config : Json::Object();
  c.Set("job_key", job_key);
  return c;
}

// A lone job on a lane as wide as the process pool is not cut down to
// cores / concurrency: its pairs fan out across the idle pool.
TEST_F(JobPoolTest, LoneJobFansOutAcrossTheWholePool) {
  RegisterBudgetProbe();
  const size_t pool = GlobalThreadPool().size();
  JobManager::Options opt;
  opt.queue_capacity = 8;
  opt.concurrency = pool;
  JobManager manager(system_, opt);
  manager.Start();

  g_probe_peak.store(0);
  auto a = manager.Submit(ProbeConfig("lone-job"));
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(AwaitTerminal(manager, *a), "done");
  manager.Shutdown();

  EXPECT_GT(g_probe_peak.load(), 0);
  if (pool >= 2) {
    EXPECT_GE(g_probe_peak.load(), 2)
        << "a lone job on a " << pool << "-worker lane ran sequentially";
  }
}

// Concurrent jobs share the one pool: between them they never run more Fit
// calls than the pool's workers plus the two job workers driving the runs.
TEST_F(JobPoolTest, ConcurrentJobsShareThePoolWithinItsSize) {
  RegisterBudgetProbe();
  const size_t pool = GlobalThreadPool().size();
  JobManager::Options opt;
  opt.queue_capacity = 8;
  opt.concurrency = 2;
  JobManager manager(system_, opt);
  manager.Start();

  g_probe_peak.store(0);
  auto a = manager.Submit(ProbeConfig("shared-1"));
  auto b = manager.Submit(ProbeConfig("shared-2"));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(AwaitTerminal(manager, *a), "done");
  EXPECT_EQ(AwaitTerminal(manager, *b), "done");
  manager.Shutdown();

  EXPECT_GT(g_probe_peak.load(), 0);
  EXPECT_LE(g_probe_peak.load(), static_cast<int>(pool) + 2)
      << "two jobs ran more Fit calls than the shared pool can hold";
}

// Checkpoint-resume still splices correctly when the cancelled job and its
// resumed successor share the pool with unrelated traffic.
TEST_F(JobPoolTest, CheckpointResumeSplicesUnderConcurrentPool) {
  const std::string dir = FreshCheckpointDir("easytime_pool_ckpt");

  auto config = Json::Parse(R"({
    "methods": ["naive", "drift", "ses", "theta"],
    "evaluation": {"strategy": "fixed", "horizon": 8, "metrics": ["mae"]},
    "num_threads": 1,
    "job_key": "pool-resume"
  })");
  ASSERT_TRUE(config.ok());

  JobManager::Options opt;
  opt.queue_capacity = 8;
  opt.concurrency = 2;
  opt.checkpoint_dir = dir;
  std::string ckpt_path;

  // Phase 1: cancel the target mid-run while a filler job keeps the other
  // worker busy; the manager shuts down like a killed process would.
  {
    ArmPairDelay(30.0);
    JobManager manager(system_, opt);
    ckpt_path = manager.CheckpointPath("pool-resume");
    ASSERT_FALSE(ckpt_path.empty());
    manager.Start();
    auto target = manager.Submit(*config);
    auto filler = manager.Submit(EvalConfig("pool-filler"));
    ASSERT_TRUE(target.ok() && filler.ok());

    for (int i = 0; i < 2000; ++i) {
      auto s = manager.StatusJson(*target);
      ASSERT_TRUE(s.ok());
      if (s->GetInt("done", 0) >= 2) break;
      std::this_thread::sleep_for(2ms);
    }
    ASSERT_TRUE(manager.Cancel(*target).ok());
  }
  FaultRegistry::Global().DisarmAll();
  ASSERT_TRUE(std::filesystem::exists(ckpt_path))
      << "checkpoint must survive a cancelled job";

  // Phase 2: a fresh pool on the same directory resumes the key while new
  // traffic runs beside it.
  {
    JobManager manager(system_, opt);
    manager.Start();
    auto target = manager.Submit(*config);
    auto filler = manager.Submit(EvalConfig("pool-filler-2"));
    ASSERT_TRUE(target.ok() && filler.ok());

    ASSERT_EQ(AwaitTerminal(manager, *target), "done");
    auto s = manager.StatusJson(*target);
    ASSERT_TRUE(s.ok());
    const Json& summary = s->Get("result");
    EXPECT_GT(summary.GetInt("resumed", 0), 0)
        << "restart must splice checkpointed pairs, not redo them";
    EXPECT_EQ(summary.GetInt("ok", -1), summary.GetInt("records", -2));
    EXPECT_GT(manager.stats().resumed_records, 0u);
    EXPECT_EQ(AwaitTerminal(manager, *filler), "done");
    EXPECT_FALSE(std::filesystem::exists(ckpt_path));
  }
  std::filesystem::remove_all(dir);
}

// A checkpoint that was compacted resumes from its snapshot ({"records":
// [...]}) and its WAL tail together.
TEST_F(JobPoolTest, ResumesFromACompactedCheckpoint) {
  const std::string dir = FreshCheckpointDir("easytime_pool_compacted");
  auto config = Json::Parse(R"({
    "methods": ["naive", "drift", "ses"],
    "evaluation": {"strategy": "fixed", "horizon": 8, "metrics": ["mae"]},
    "num_threads": 1,
    "job_key": "pool-compacted"
  })");
  ASSERT_TRUE(config.ok());

  // Records exactly as a run checkpoints them.
  auto reference = system_->OneClickEvaluate(*config);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  std::vector<Json> records;
  for (const auto& rec : reference->records) {
    if (rec.status.ok()) records.push_back(rec.ToJson());
  }
  ASSERT_GE(records.size(), 3u);

  JobManager::Options opt;
  opt.checkpoint_dir = dir;
  JobManager manager(system_, opt);
  const std::string ckpt_path = manager.CheckpointPath("pool-compacted");
  {
    auto store = store::RecordStore::Open(ckpt_path,
                                          store::RecordStoreOptions{}, nullptr);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE((*store)->Append(records[0].Dump()).ok());
    ASSERT_TRUE((*store)->Append(records[1].Dump()).ok());
    Json snapshot = Json::Object();
    Json arr = Json::Array();
    arr.Append(records[0]);
    arr.Append(records[1]);
    snapshot.Set("records", std::move(arr));
    ASSERT_TRUE((*store)->Compact(snapshot.Dump()).ok());
    ASSERT_TRUE((*store)->Append(records[2].Dump()).ok());
    ASSERT_TRUE((*store)->Sync().ok());
  }

  manager.Start();
  auto job = manager.Submit(*config);
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  ASSERT_EQ(AwaitTerminal(manager, *job), "done");
  auto s = manager.StatusJson(*job);
  ASSERT_TRUE(s.ok());
  const Json& summary = s->Get("result");
  EXPECT_EQ(summary.GetInt("resumed", -1), 3)
      << "two snapshot records and one WAL record must be spliced in";
  EXPECT_EQ(summary.GetInt("records", -1),
            static_cast<int64_t>(reference->records.size()));
  EXPECT_EQ(manager.stats().resumed_records, 3u);
  EXPECT_FALSE(std::filesystem::exists(ckpt_path));
  manager.Shutdown();
  std::filesystem::remove_all(dir);
}

// A checkpoint append that fails ends its job with the store's IOError: a
// run whose records no longer persist must not carry on as if they did. The
// checkpoint stays for the next run, which resumes once the store reopens.
TEST_F(JobPoolTest, FailedCheckpointAppendFailsTheJob) {
  const std::string dir = FreshCheckpointDir("easytime_pool_ckpt_fail");
  auto config = Json::Parse(R"({
    "methods": ["naive", "drift", "ses", "theta"],
    "evaluation": {"strategy": "fixed", "horizon": 8, "metrics": ["mae"]},
    "num_threads": 1,
    "job_key": "pool-ckpt-fail"
  })");
  ASSERT_TRUE(config.ok());
  JobManager::Options opt;
  opt.checkpoint_dir = dir;
  std::string ckpt_path;
  {
    FaultSpec fail;
    fail.kind = FaultKind::kError;
    fail.code = StatusCode::kIOError;
    fail.max_triggers = 1;
    ASSERT_TRUE(FaultRegistry::Global().Arm("store.fsync", fail).ok());
    JobManager manager(system_, opt);
    ckpt_path = manager.CheckpointPath("pool-ckpt-fail");
    manager.Start();
    auto job = manager.Submit(*config);
    ASSERT_TRUE(job.ok()) << job.status().ToString();
    ASSERT_EQ(AwaitTerminal(manager, *job), "failed");
    auto s = manager.StatusJson(*job);
    ASSERT_TRUE(s.ok());
    EXPECT_NE(s->GetString("error", "").find("IO error"), std::string::npos)
        << s->GetString("error", "");
    EXPECT_NE(s->GetString("error", "").find("checkpoint append"),
              std::string::npos);
    EXPECT_EQ(manager.stats().failed, 1u);
  }
  FaultRegistry::Global().DisarmAll();
  EXPECT_TRUE(std::filesystem::exists(ckpt_path))
      << "a failed job keeps its checkpoint";

  JobManager manager(system_, opt);
  manager.Start();
  auto job = manager.Submit(*config);
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  EXPECT_EQ(AwaitTerminal(manager, *job), "done");
  manager.Shutdown();
  std::filesystem::remove_all(dir);
}

// A job that crashed between appending its terminal marker and removing its
// checkpoint leaves an orphan behind; Start() must sweep exactly those.
TEST_F(JobPoolTest, StartSweepsTerminalOrphanCheckpointsOnly) {
  const std::string dir = FreshCheckpointDir("easytime_pool_sweep");

  JobManager::Options opt;
  opt.queue_capacity = 4;
  opt.checkpoint_dir = dir;
  JobManager manager(system_, opt);

  // Terminal orphan: its WAL holds the "__terminal__" marker a completed
  // job appends right before removal.
  const std::string orphan = manager.CheckpointPath("swept-key");
  {
    auto ckpt =
        store::RecordStore::Open(orphan, store::RecordStoreOptions{}, nullptr);
    ASSERT_TRUE(ckpt.ok()) << ckpt.status().ToString();
    Json marker = Json::Object();
    marker.Set("__terminal__", "done");
    ASSERT_TRUE((*ckpt)->Append(marker.Dump()).ok());
    ASSERT_TRUE((*ckpt)->Sync().ok());
  }
  // Live checkpoint: a cancelled/crashed job mid-run, records but no marker.
  const std::string live = manager.CheckpointPath("live-key");
  {
    auto ckpt =
        store::RecordStore::Open(live, store::RecordStoreOptions{}, nullptr);
    ASSERT_TRUE(ckpt.ok()) << ckpt.status().ToString();
    Json rec = Json::Object();
    rec.Set("dataset", "d");
    rec.Set("method", "naive");
    ASSERT_TRUE((*ckpt)->Append(rec.Dump()).ok());
    ASSERT_TRUE((*ckpt)->Sync().ok());
  }

  manager.Start();
  EXPECT_FALSE(std::filesystem::exists(orphan))
      << "terminal orphans must be swept at startup";
  EXPECT_TRUE(std::filesystem::exists(live))
      << "resumable checkpoints must survive the sweep";
  EXPECT_EQ(manager.stats().swept_checkpoints, 1u);
  manager.Shutdown();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace easytime::serve
