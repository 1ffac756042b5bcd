#include "cluster/worker.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <thread>
#include <utility>

#include "cluster/replicator.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "knowledge/knowledge_store.h"
#include "store/wal.h"

namespace easytime::cluster {

namespace {
namespace fs = std::filesystem;

/// Requests carrying a shipped WAL segment (base64 of up to a full segment
/// file) far exceed the serving default, so the worker's own line budget is
/// raised; the router still clamps CLIENT lines at its front-end.
constexpr size_t kWorkerMaxRequestBytes = 8u << 20;

/// Decodes the records of one KB WAL segment image into result rows.
/// Records at or below \p after_seq are skipped; \p *last_seq gets the
/// highest sequence seen. Unknown record types are ignored (forward
/// compatibility with future WAL record kinds).
easytime::Result<std::vector<knowledge::ResultEntry>> DecodeResultRecords(
    std::string_view bytes, const std::string& file, uint64_t after_seq,
    uint64_t* last_seq) {
  std::vector<knowledge::ResultEntry> entries;
  easytime::Status decode_error = easytime::Status::OK();
  auto info = store::ValidateWalSegmentImage(
      bytes, file, [&](uint64_t seq, std::string_view payload) {
        if (seq <= after_seq || !decode_error.ok()) return;
        auto record = easytime::Json::Parse(std::string(payload));
        if (!record.ok()) {
          decode_error = record.status();
          return;
        }
        if (record->GetString("type", "") != "results") return;
        const easytime::Json& rows = record->Get("results");
        if (!rows.is_array()) return;
        for (const easytime::Json& row : rows.items()) {
          auto entry = knowledge::ResultEntryFromJson(row);
          if (!entry.ok()) {
            decode_error = entry.status();
            return;
          }
          entries.push_back(std::move(*entry));
        }
      });
  EASYTIME_RETURN_IF_ERROR(info.status());
  EASYTIME_RETURN_IF_ERROR(decode_error);
  if (last_seq != nullptr && info->last_seq > *last_seq) {
    *last_seq = info->last_seq;
  }
  return entries;
}

}  // namespace

easytime::Result<core::EasyTime::Options> PresetOptions(
    const std::string& preset) {
  core::EasyTime::Options opt;
  if (preset == "default") return opt;
  if (preset != "small") {
    return Status::InvalidArgument("unknown preset '" + preset +
                                   "' (small|default)");
  }
  // The fast bring-up used by cluster tests and the bench: a 1+1 dataset
  // suite, short series, the cheap closed-form methods, a tiny encoder.
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
  return opt;
}

easytime::Result<std::unique_ptr<ShardWorker>> ShardWorker::Start(
    WorkerConfig config) {
  if (config.role != "primary" && config.role != "replica") {
    return Status::InvalidArgument("role must be primary|replica, got '" +
                                   config.role + "'");
  }
  if (config.store_dir.empty()) {
    return Status::InvalidArgument("a worker needs a --store-dir");
  }
  std::unique_ptr<ShardWorker> worker(new ShardWorker(std::move(config)));
  worker->role_ = worker->config_.role;
  if (worker->role_ == "replica") {
    // The store dir is pure staging until promotion; the live system runs
    // the deterministic suite in memory.
    std::error_code ec;
    fs::create_directories(worker->config_.store_dir, ec);
    fs::create_directories(worker->config_.store_dir + "/appends", ec);
    EASYTIME_RETURN_IF_ERROR(worker->BringUp("", worker->config_.port));
  } else {
    EASYTIME_RETURN_IF_ERROR(
        worker->BringUp(worker->config_.store_dir, worker->config_.port));
  }
  return worker;
}

ShardWorker::~ShardWorker() { Stop(); }

void ShardWorker::Stop() {
  if (stopped_.exchange(true)) return;
  if (promote_thread_.joinable()) promote_thread_.join();
  std::lock_guard<std::mutex> lock(mu_);
  if (frontend_) frontend_->Stop();
  if (server_) server_->Stop();
}

std::string ShardWorker::role() const {
  std::lock_guard<std::mutex> lock(mu_);
  return role_;
}

easytime::Status ShardWorker::BringUp(const std::string& store_dir,
                                      uint16_t port) {
  EASYTIME_ASSIGN_OR_RETURN(core::EasyTime::Options opt,
                            PresetOptions(config_.preset));
  if (!store_dir.empty()) {
    opt.store_dir = store_dir;
  }
  EASYTIME_ASSIGN_OR_RETURN(std::unique_ptr<core::EasyTime> system,
                            core::EasyTime::Create(opt));

  serve::ForecastServer::Options sopt;
  sopt.max_request_bytes = kWorkerMaxRequestBytes;
  auto server =
      std::make_unique<serve::ForecastServer>(system.get(), sopt);
  RegisterControlEndpoints(server.get());
  server->Start();

  // Detach the old stack first (the new listener needs the port), but stop
  // it OUTSIDE mu_: Stop joins connection threads, and an in-flight control
  // handler may be waiting on mu_ — stopping under the lock would deadlock.
  std::unique_ptr<serve::EventLoopServer> old_frontend;
  std::unique_ptr<serve::ForecastServer> old_server;
  {
    std::lock_guard<std::mutex> lock(mu_);
    old_frontend = std::move(frontend_);
    old_server = std::move(server_);
  }
  if (old_frontend) old_frontend->Stop();
  if (old_server) old_server->Stop();

  serve::EventLoopServer::Options fopt;
  fopt.port = port;
  fopt.auth_token = config_.auth_token;
  auto frontend =
      std::make_unique<serve::EventLoopServer>(server.get(), fopt);

  // Rebinding the same port right after a Stop can race the old socket's
  // teardown; a brief retry loop absorbs it (SO_REUSEADDR covers
  // TIME_WAIT, not a still-open listener).
  easytime::Status started = easytime::Status::OK();
  for (int attempt = 0; attempt < 40; ++attempt) {
    started = frontend->Start();
    if (started.ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  if (!started.ok()) {
    server->Stop();
    return started;
  }

  std::lock_guard<std::mutex> lock(mu_);
  if (old_frontend) old_frontends_.push_back(std::move(old_frontend));
  if (old_server) old_servers_.push_back(std::move(old_server));
  if (system_) old_systems_.push_back(std::move(system_));
  system_ = std::move(system);
  server_ = std::move(server);
  frontend_ = std::move(frontend);
  port_ = frontend_->port();
  return Status::OK();
}

void ShardWorker::RegisterControlEndpoints(serve::ForecastServer* server) {
  server->RegisterControlEndpoint(
      "replica_apply",
      [this](const easytime::Json& p) { return ReplicaApply(p); });
  server->RegisterControlEndpoint(
      "replica_apply_appends",
      [this](const easytime::Json& p) { return ReplicaApplyAppends(p); });
  server->RegisterControlEndpoint(
      "promote", [this](const easytime::Json& p) { return Promote(p); });
  server->RegisterControlEndpoint(
      "replica_status",
      [this](const easytime::Json&) { return ReplicaStatus(); });
}

easytime::Result<easytime::Json> ShardWorker::ReplicaApply(
    const easytime::Json& params) {
  if (role() != "replica") {
    return Status::InvalidArgument("replica_apply on a primary");
  }
  const std::string file = params.GetString("file", "");
  EASYTIME_ASSIGN_OR_RETURN(std::string bytes,
                            Base64Decode(params.GetString("data", "")));
  // Durable staging first (torn-tail guard + stale-reship rejection live
  // in the import), then the live replay.
  EASYTIME_ASSIGN_OR_RETURN(
      store::WalSegmentInfo info,
      store::ImportWalSegment(config_.store_dir, file, bytes));
  uint64_t last_seq = applied_seq_.load();
  EASYTIME_ASSIGN_OR_RETURN(
      std::vector<knowledge::ResultEntry> entries,
      DecodeResultRecords(bytes, file, applied_seq_.load(), &last_seq));
  size_t merged = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (system_) {
      EASYTIME_ASSIGN_OR_RETURN(merged,
                                system_->IngestReplicatedResults(entries));
    }
  }
  applied_seq_.store(std::max(applied_seq_.load(), last_seq));
  easytime::Json out = easytime::Json::Object();
  out.Set("applied_seq", static_cast<int64_t>(applied_seq_.load()));
  out.Set("records", static_cast<int64_t>(merged));
  out.Set("file_records", static_cast<int64_t>(info.records));
  return out;
}

easytime::Result<easytime::Json> ShardWorker::ReplicaApplyAppends(
    const easytime::Json& params) {
  if (role() != "replica") {
    return Status::InvalidArgument("replica_apply_appends on a primary");
  }
  const std::string file = params.GetString("file", "");
  EASYTIME_ASSIGN_OR_RETURN(std::string bytes,
                            Base64Decode(params.GetString("data", "")));
  // Append batches are staged only: replaying them live would need the
  // replica's offset chain to match the primary's exactly, and promotion's
  // AppendLog::Open replay gets that for free from the staged files.
  EASYTIME_ASSIGN_OR_RETURN(
      store::WalSegmentInfo info,
      store::ImportWalSegment(config_.store_dir + "/appends", file, bytes));
  if (info.last_seq > appends_staged_seq_.load()) {
    appends_staged_seq_.store(info.last_seq);
  }
  easytime::Json out = easytime::Json::Object();
  out.Set("applied_seq", static_cast<int64_t>(appends_staged_seq_.load()));
  out.Set("records", static_cast<int64_t>(info.records));
  return out;
}

easytime::Result<easytime::Json> ShardWorker::Promote(
    const easytime::Json& params) {
  const std::string source_dir = params.GetString("source_dir", "");
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (role_ == "primary") {
      easytime::Json out = easytime::Json::Object();
      out.Set("promoting", false);
      out.Set("role", "primary");
      return out;  // idempotent: already there
    }
  }
  if (promoting_.exchange(true)) {
    easytime::Json out = easytime::Json::Object();
    out.Set("promoting", true);
    return out;
  }
  if (promote_thread_.joinable()) promote_thread_.join();
  promote_thread_ =
      std::thread([this, source_dir]() { PromoteThread(source_dir); });
  easytime::Json out = easytime::Json::Object();
  out.Set("promoting", true);
  return out;
}

void ShardWorker::PromoteThread(std::string source_dir) {
  EASYTIME_LOG(Info) << "promotion started (source: "
                     << (source_dir.empty() ? "<none>" : source_dir) << ")";
  easytime::Status status = easytime::Status::OK();
  if (!source_dir.empty()) {
    // Final catch-up from the dead primary's frozen disk: everything it
    // acked is in these files (fsync-before-ack), so copying the valid
    // prefixes guarantees no acked write is lost even though live shipping
    // only covered sealed segments.
    auto kb = SyncFrozenStoreDir(source_dir, config_.store_dir);
    if (!kb.ok()) status = kb.status();
    if (status.ok()) {
      auto ap = SyncFrozenStoreDir(source_dir + "/appends",
                                   config_.store_dir + "/appends");
      if (!ap.ok()) status = ap.status();
    }
  }
  if (status.ok()) {
    status = BringUp(config_.store_dir, port_);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (status.ok()) {
      role_ = "primary";
      promote_error_.clear();
      EASYTIME_LOG(Info) << "promotion complete; serving as primary on port "
                         << port_;
    } else {
      promote_error_ = status.ToString();
      EASYTIME_LOG(Error) << "promotion failed: " << promote_error_;
    }
  }
  promoting_.store(false);
}

easytime::Result<easytime::Json> ShardWorker::ReplicaStatus() {
  easytime::Json out = easytime::Json::Object();
  std::lock_guard<std::mutex> lock(mu_);
  out.Set("role", role_);
  out.Set("promoting", promoting_.load());
  out.Set("promote_error", promote_error_);
  out.Set("applied_seq", static_cast<int64_t>(applied_seq_.load()));
  out.Set("appends_staged_seq",
          static_cast<int64_t>(appends_staged_seq_.load()));
  out.Set("port", static_cast<int64_t>(port_));
  out.Set("kb_results",
          system_ ? static_cast<int64_t>(system_->knowledge().NumResults())
                  : int64_t{0});
  return out;
}

}  // namespace easytime::cluster
