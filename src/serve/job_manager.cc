#include "serve/job_manager.h"

#include <algorithm>
#include <filesystem>
#include <functional>
#include <optional>
#include <sstream>
#include <system_error>

#include "common/fault.h"
#include "common/logging.h"
#include "eval/backtest.h"
#include "pipeline/runner.h"
#include "serve/request.h"
#include "store/record_store.h"

namespace easytime::serve {

namespace {

/// WAL record appended when a job reaches kDone, just before its checkpoint
/// store is removed — the persisted terminal status the startup sweep keys
/// on when the removal itself was lost to a crash.
constexpr char kTerminalKey[] = "__terminal__";

/// A checkpoint store compacts after this many appended records.
constexpr uint64_t kCompactEvery = 64;

/// True for the WAL payload Checkpoint::Conclude appends.
bool IsTerminalMarker(const std::string& payload) {
  auto doc = easytime::Json::Parse(payload);
  return doc.ok() && doc->Has(kTerminalKey);
}

/// \brief One job's checkpoint store, shared by both job types. Records are
/// JSON docs under a per-type key (the (dataset, method) pair of a run
/// record, the ladder index of a backtest origin). Each append is synced;
/// every kCompactEvery appends the store compacts to the snapshot
/// {"<field>": [doc...]} in key order.
template <typename Key>
class Checkpoint {
 public:
  /// Recovers the snapshot and WAL tail of the store at \p path (created
  /// when absent). Each recovered doc goes through \p recover, which returns
  /// its key, or nullopt to drop it so the record re-runs. Returns nullptr
  /// when \p path is empty (checkpointing off) or the store cannot be
  /// opened; the job then runs without one.
  static std::unique_ptr<Checkpoint> Open(
      uint64_t job_id, const std::string& path, std::string field,
      const std::function<std::optional<Key>(const easytime::Json&)>&
          recover) {
    if (path.empty()) return nullptr;
    store::RecordStoreOptions options;
    options.sync_every_append = true;  // each record is durable when appended
    store::RecordStoreRecovery recovery;
    auto opened = store::RecordStore::Open(path, options, &recovery);
    if (!opened.ok()) {
      EASYTIME_LOG(Warning) << "job " << job_id
                            << ": cannot open checkpoint store " << path
                            << " (" << opened.status().ToString()
                            << "); running without one";
      return nullptr;
    }
    std::unique_ptr<Checkpoint> ckpt(
        new Checkpoint(std::move(*opened), std::move(field)));
    auto absorb = [&](const easytime::Json& doc) {
      if (std::optional<Key> key = recover(doc)) ckpt->docs_[*key] = doc;
    };
    if (recovery.has_snapshot) {
      auto snap = easytime::Json::Parse(recovery.snapshot);
      if (snap.ok()) {
        for (const auto& doc : snap->Get(ckpt->field_).items()) absorb(doc);
      }
    }
    for (const auto& [seq, payload] : recovery.tail) {
      (void)seq;
      auto doc = easytime::Json::Parse(payload);
      if (doc.ok() && !doc->Has(kTerminalKey)) absorb(*doc);
    }
    if (!ckpt->docs_.empty()) {
      EASYTIME_LOG(Info) << "job " << job_id << " resuming from "
                         << ckpt->docs_.size() << " checkpointed records ("
                         << path << ")";
    }
    return ckpt;
  }

  /// Appends \p doc under \p key (safe from concurrent pipeline threads).
  /// Returns false once an append has failed: the caller stops the run, and
  /// Conclude reports the first failure's error. A job whose records no
  /// longer persist must not run on as if they did.
  bool Append(Key key, easytime::Json doc) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!failed_.ok()) return false;
    auto seq = store_->Append(doc.Dump());
    if (!seq.ok()) {
      failed_ = seq.status().WithContext("checkpoint append");
      return false;
    }
    docs_[std::move(key)] = std::move(doc);
    if (store_->appends_since_compaction() >= kCompactEvery) {
      easytime::Json state = easytime::Json::Object();
      easytime::Json arr = easytime::Json::Array();
      for (const auto& [k, d] : docs_) arr.Append(d);
      state.Set(field_, std::move(arr));
      auto st = store_->Compact(state.Dump());
      if (!st.ok()) {
        EASYTIME_LOG(Warning) << "checkpoint compaction failed: "
                              << st.ToString();
      }
    }
    return true;
  }

  /// Ends the checkpoint of a run that returned \p run. The first failed
  /// append's error wins over \p run. A successful run persists its
  /// terminal status before the finished job removes the store: if the
  /// removal is lost to a crash, the startup sweep keys on it.
  easytime::Status Conclude(easytime::Status run) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!failed_.ok()) return failed_;
    if (run.ok()) {
      easytime::Json marker = easytime::Json::Object();
      marker.Set(kTerminalKey, "done");
      (void)store_->Append(marker.Dump());
    }
    return run;
  }

 private:
  Checkpoint(std::unique_ptr<store::RecordStore> store, std::string field)
      : store_(std::move(store)), field_(std::move(field)) {}

  std::mutex mu_;  ///< serializes appends, compactions and the marker
  std::unique_ptr<store::RecordStore> store_;
  const std::string field_;
  /// Every checkpointed doc (recovered + this run's): the snapshot state.
  std::map<Key, easytime::Json> docs_;
  easytime::Status failed_ = easytime::Status::OK();  ///< first failed append
};

}  // namespace

const char* JobStateName(JobState s) {
  switch (s) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
  }
  return "unknown";
}

JobManager::JobManager(core::EasyTime* system, Options options)
    : system_(system), options_(std::move(options)) {
  if (options_.concurrency == 0) options_.concurrency = 1;
}

JobManager::~JobManager() { Shutdown(); }

void JobManager::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_) return;
  started_ = true;
  if (!options_.checkpoint_dir.empty()) SweepOrphanedCheckpointsLocked();
  workers_.reserve(options_.concurrency);
  for (size_t i = 0; i < options_.concurrency; ++i) {
    workers_.emplace_back([this]() { WorkerLoop(); });
  }
}

void JobManager::Shutdown() {
  std::vector<std::thread> workers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    for (uint64_t id : queued_) {
      jobs_[id]->state = JobState::kCancelled;
      ++stats_.cancelled;
    }
    queued_.clear();
    workers.swap(workers_);
  }
  cv_.notify_all();
  for (auto& w : workers) {
    if (w.joinable()) w.join();
  }
}

size_t JobManager::running_jobs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return num_running_;
}

std::string JobManager::JobKey(const easytime::Json& config) {
  std::string key = config.GetString("job_key", "");
  if (!key.empty()) return key;
  // No explicit key: derive one from the canonicalized config, so the same
  // evaluation request resumes its own checkpoint by default.
  size_t h = std::hash<std::string>{}(CanonicalKey("evaluate", config));
  std::ostringstream ss;
  ss << "auto-" << std::hex << h;
  return ss.str();
}

std::string JobManager::CheckpointPath(const std::string& job_key) const {
  if (options_.checkpoint_dir.empty()) return "";
  std::string safe;
  safe.reserve(job_key.size());
  for (char c : job_key) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.';
    safe.push_back(ok ? c : '_');
  }
  if (safe.empty()) safe = "job";
  return options_.checkpoint_dir + "/" + safe + ".ckpt";
}

void JobManager::SweepOrphanedCheckpointsLocked() {
  namespace fs = std::filesystem;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(options_.checkpoint_dir,
                                                  ec)) {
    if (!entry.is_directory() || entry.path().extension() != ".ckpt") {
      continue;
    }
    store::RecordStoreRecovery recovery;
    auto ckpt = store::RecordStore::Open(entry.path().string(),
                                         store::RecordStoreOptions{},
                                         &recovery);
    if (!ckpt.ok()) continue;
    const bool terminal = std::any_of(
        recovery.tail.begin(), recovery.tail.end(),
        [](const auto& record) { return IsTerminalMarker(record.second); });
    if (!terminal) continue;
    ckpt->reset();  // close the store's fds before deleting it
    std::error_code rm_ec;
    fs::remove_all(entry.path(), rm_ec);
    if (!rm_ec) {
      ++stats_.swept_checkpoints;
      EASYTIME_LOG(Info) << "jobs: swept orphaned terminal checkpoint "
                         << entry.path().string();
    }
  }
}

easytime::Result<uint64_t> JobManager::Submit(easytime::Json config) {
  EASYTIME_FAULT_POINT("serve.job");
  std::lock_guard<std::mutex> lock(mu_);
  if (shutdown_) {
    ++stats_.rejected;
    return Status::Unavailable("evaluation lane is shut down");
  }
  if (queued_.size() >= options_.queue_capacity) {
    ++stats_.rejected;
    return Status::Unavailable(
        "evaluation queue is full (" +
        std::to_string(options_.queue_capacity) + " jobs); retry later");
  }
  auto job = std::make_unique<Job>();
  const uint64_t id = next_id_++;
  job->id = id;
  job->job_key = JobKey(config);
  job->config = std::move(config);
  jobs_[id] = std::move(job);
  queued_.push_back(id);
  ++stats_.submitted;
  cv_.notify_one();
  return id;
}

easytime::Json JobManager::JobJsonLocked(const Job& job) const {
  easytime::Json out = easytime::Json::Object();
  out.Set("job", static_cast<int64_t>(job.id));
  out.Set("state", JobStateName(job.state));
  out.Set("done", static_cast<int64_t>(job.done.load()));
  out.Set("total", static_cast<int64_t>(job.total.load()));
  if (job.state == JobState::kDone) out.Set("result", job.result);
  if (job.state == JobState::kFailed) {
    out.Set("error", job.error.ToString());
  }
  return out;
}

easytime::Result<easytime::Json> JobManager::StatusJson(
    uint64_t job_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) {
    return Status::NotFound("no such job: " + std::to_string(job_id));
  }
  return JobJsonLocked(*it->second);
}

easytime::Result<easytime::Json> JobManager::Cancel(uint64_t job_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) {
    return Status::NotFound("no such job: " + std::to_string(job_id));
  }
  Job& job = *it->second;
  job.cancel.store(true);
  if (job.state == JobState::kQueued) {
    queued_.erase(std::remove(queued_.begin(), queued_.end(), job_id),
                  queued_.end());
    job.state = JobState::kCancelled;
    ++stats_.cancelled;
  }
  return JobJsonLocked(job);
}

JobManager::Stats JobManager::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t JobManager::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queued_.size();
}

template <typename Hooks>
void JobManager::WireCommonHooks(Job* job, Hooks* hooks) const {
  hooks->cancelled = [job]() { return job->cancel.load(); };
  hooks->progress = [job](size_t done, size_t total) {
    job->done.store(done, std::memory_order_relaxed);
    job->total.store(total, std::memory_order_relaxed);
  };
  const double deadline_ms = job->config.GetDouble("deadline_ms", 0.0);
  if (deadline_ms > 0.0) {
    hooks->deadline = easytime::Deadline::AfterMillis(deadline_ms);
  }
}

void JobManager::CountResumed(size_t records) {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.resumed_records += records;
}

void JobManager::Finish(Job* job, const Status& status,
                        easytime::Json result) {
  std::lock_guard<std::mutex> lock(mu_);
  if (status.ok()) {
    job->result = std::move(result);
    job->state = JobState::kDone;
    ++stats_.completed;
    // The job is terminal and its results are reported; the checkpoint has
    // served its purpose.
    const std::string ckpt_path = CheckpointPath(job->job_key);
    if (!ckpt_path.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(ckpt_path, ec);
    }
  } else if (status.IsCancelled()) {
    job->state = JobState::kCancelled;
    ++stats_.cancelled;
  } else {
    job->error = status;
    job->state = JobState::kFailed;
    ++stats_.failed;
    EASYTIME_LOG(Warning) << job->config.GetString("type", "evaluate")
                          << " job " << job->id
                          << " failed: " << status.ToString();
  }
}

void JobManager::RunEvaluateJob(Job* job) {
  pipeline::RunHooks hooks;
  WireCommonHooks(job, &hooks);
  std::map<std::string, pipeline::RunRecord> completed;
  auto ckpt = Checkpoint<std::string>::Open(
      job->id, CheckpointPath(job->job_key), "records",
      [&completed](const easytime::Json& doc) -> std::optional<std::string> {
        auto rec = pipeline::RunRecord::FromJson(doc);
        // Only trust successful records; anything else re-runs on resume.
        if (!rec.ok() || !rec->status.ok()) return std::nullopt;
        std::string key = pipeline::PairKey(rec->dataset, rec->method);
        completed[key] = std::move(*rec);
        return key;
      });
  const size_t resumed = completed.size();
  if (resumed > 0) {
    hooks.completed = &completed;
    CountResumed(resumed);
  }
  if (ckpt) {
    hooks.on_record = [&ckpt, job](const pipeline::RunRecord& rec) {
      if (!rec.status.ok()) return;  // failures re-run on resume
      if (!ckpt->Append(pipeline::PairKey(rec.dataset, rec.method),
                        rec.ToJson())) {
        job->cancel.store(true);  // stops the run; Conclude has the error
      }
    };
  }

  auto report = system_->OneClickEvaluate(job->config, hooks);
  const Status status =
      ckpt ? ckpt->Conclude(report.status()) : report.status();
  ckpt.reset();  // close the store's fds before Finish removes it
  easytime::Json summary;
  if (report.ok()) {
    summary = easytime::Json::Object();
    summary.Set("records", static_cast<int64_t>(report->records.size()));
    summary.Set("ok", static_cast<int64_t>(report->Successful().size()));
    summary.Set("wall_seconds", report->wall_seconds);
    if (resumed > 0) summary.Set("resumed", static_cast<int64_t>(resumed));
  }
  Finish(job, status, std::move(summary));
}

void JobManager::RunBacktestJob(Job* job) {
  const std::string dataset = job->config.GetString("dataset", "");
  if (dataset.empty()) {
    Finish(job,
           Status::InvalidArgument("backtest requires a \"dataset\" name"));
    return;
  }
  auto config_or = eval::BacktestConfig::FromJson(job->config);
  if (!config_or.ok()) {
    Finish(job, config_or.status());
    return;
  }
  // Snapshot under the facade's shared lock: streaming appends may be
  // landing concurrently, and the backtest must see one consistent prefix.
  auto series_or = system_->SeriesSnapshot(dataset);
  if (!series_or.ok()) {
    Finish(job, series_or.status());
    return;
  }

  eval::BacktestHooks hooks;
  WireCommonHooks(job, &hooks);
  std::map<size_t, eval::OriginEval> completed;
  auto ckpt = Checkpoint<size_t>::Open(
      job->id, CheckpointPath(job->job_key), "origins",
      [&completed](const easytime::Json& doc) -> std::optional<size_t> {
        auto rec = eval::OriginEval::FromJson(doc);
        if (!rec.ok()) return std::nullopt;
        const size_t index = rec->index;
        completed[index] = std::move(*rec);
        return index;
      });
  if (!completed.empty()) {
    hooks.completed = &completed;
    CountResumed(completed.size());
  }
  if (ckpt) {
    hooks.on_origin = [&ckpt, job](const eval::OriginEval& rec) {
      if (!ckpt->Append(rec.index, rec.ToJson())) {
        job->cancel.store(true);  // stops the run; Conclude has the error
      }
    };
  }

  auto report = eval::RunBacktest(series_or->values(),
                                  series_or->period_hint(), *config_or, hooks);
  const Status status =
      ckpt ? ckpt->Conclude(report.status()) : report.status();
  ckpt.reset();  // close the store's fds before Finish removes it
  easytime::Json result;
  if (report.ok()) {
    result = report->ToJson();
    result.Set("dataset", dataset);
  }
  Finish(job, status, std::move(result));
}

JobManager::Job* JobManager::TakeRunnableLocked() {
  for (auto it = queued_.begin(); it != queued_.end(); ++it) {
    Job& job = *jobs_.at(*it);
    if (active_keys_.count(job.job_key) > 0) continue;
    queued_.erase(it);
    active_keys_.insert(job.job_key);
    job.state = JobState::kRunning;
    ++num_running_;
    stats_.peak_running = std::max<uint64_t>(stats_.peak_running, num_running_);
    return &job;
  }
  return nullptr;
}

void JobManager::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    Job* job = TakeRunnableLocked();
    if (job == nullptr) {
      if (shutdown_) return;
      cv_.wait(lock);
      continue;
    }
    lock.unlock();
    if (job->config.GetString("type", "evaluate") == "backtest") {
      RunBacktestJob(job);
    } else {
      RunEvaluateJob(job);
    }
    lock.lock();
    active_keys_.erase(job->job_key);
    --num_running_;
    cv_.notify_all();  // the key's next queued job may start now
  }
}

}  // namespace easytime::serve
