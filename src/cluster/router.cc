#include "cluster/router.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <initializer_list>
#include <limits>
#include <map>
#include <utility>

#include "common/logging.h"

namespace easytime::cluster {

namespace {
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

constexpr size_t kIdleClientsPerShard = 8;  ///< pooled idle connections cap

std::string ErrorLine(int64_t id, const Status& status) {
  return serve::MakeErrorResponse(id, status).Dump();
}

/// Sets \p fields on a successful reply's result object with one parse and
/// one dump; error replies and non-object results pass through untouched.
std::string StampResult(
    const std::string& reply,
    std::initializer_list<std::pair<const char*, easytime::Json>> fields) {
  auto resp = easytime::Json::Parse(reply);
  if (!resp.ok() || !resp->GetBool("ok", false) ||
      !resp->Get("result").is_object()) {
    return reply;
  }
  easytime::Json result = resp->Take("result");
  for (const auto& [key, value] : fields) result.Set(key, value);
  resp->Set("result", std::move(result));
  return resp->Dump();
}

}  // namespace

ClusterRouter::ClusterRouter(Options options)
    : options_(std::move(options)),
      map_(options_.placement),
      supervisor_([&] {
        Supervisor::Options s;
        s.spawn_timeout_ms = options_.worker_spawn_timeout_ms;
        return s;
      }()),
      replicator_([&] {
        Replicator::Options r;
        r.interval_ms = options_.ship_interval_ms;
        r.auth_token = options_.auth_token;
        return r;
      }()) {}

ClusterRouter::~ClusterRouter() { Stop(); }

easytime::Result<uint16_t> ClusterRouter::SpawnWorker(
    const std::string& name, const std::string& role,
    const std::string& store_dir) {
  WorkerSpec spec;
  spec.name = name;
  spec.port_file = options_.work_dir + "/" + name + ".port";
  spec.log_path = options_.work_dir + "/" + name + ".log";
  spec.argv = {options_.worker_binary, "--port-file", spec.port_file,
               "--store-dir", store_dir,  "--role",     role,
               "--preset",    options_.preset};
  if (!options_.auth_token.empty()) {
    spec.argv.push_back("--auth-token");
    spec.argv.push_back(options_.auth_token);
  }
  return supervisor_.Spawn(spec);
}

easytime::Status ClusterRouter::Start() {
  if (running_.load()) return Status::OK();
  if (stopped_.load()) {
    return Status::Unavailable("router was stopped; create a new one");
  }
  if (options_.worker_binary.empty() || options_.work_dir.empty()) {
    return Status::InvalidArgument(
        "ClusterRouter needs worker_binary and work_dir");
  }
  if (options_.shards == 0) {
    return Status::InvalidArgument("ClusterRouter needs at least one shard");
  }
  std::error_code ec;
  fs::create_directories(options_.work_dir, ec);
  if (ec) return Status::IOError("cannot create " + options_.work_dir);

  for (size_t i = 0; i < options_.shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->id = "shard-" + std::to_string(i);
    shard->primary_name = shard->id + "-p0";
    shard->primary_store = options_.work_dir + "/" + shard->id + "-primary";
    shard->breaker = std::make_unique<CircuitBreaker>(CircuitBreaker::Options{
        options_.breaker_threshold, options_.breaker_cooldown_ms});
    EASYTIME_ASSIGN_OR_RETURN(
        uint16_t pport,
        SpawnWorker(shard->primary_name, "primary", shard->primary_store));
    shard->primary_port.store(pport);
    if (options_.replicate) EASYTIME_RETURN_IF_ERROR(SpawnReplica(*shard));
    map_.AddShard(shard->id);
    shards_.push_back(std::move(shard));
  }

  if (options_.ship_interval_ms > 0 && options_.replicate) {
    replicator_.Start();
  }

  serve::EventLoopServer::Options fopt;
  fopt.port = options_.port;
  fopt.auth_token = options_.auth_token;
  frontend_ = std::make_unique<serve::EventLoopServer>(
      [this](const std::string& line) { return HandleLine(line); },
      options_.max_request_bytes, fopt);
  EASYTIME_RETURN_IF_ERROR(frontend_->Start());

  running_.store(true);
  if (options_.health_interval_ms > 0) {
    health_thread_ = std::thread([this]() { HealthLoop(); });
  }
  return Status::OK();
}

void ClusterRouter::Stop() {
  if (stopped_.exchange(true)) return;
  {
    std::lock_guard<std::mutex> lock(health_mu_);
    running_.store(false);
  }
  health_cv_.notify_all();
  if (health_thread_.joinable()) health_thread_.join();
  replicator_.Stop();
  if (frontend_) frontend_->Stop();
  for (auto& shard : shards_) {
    auto [primary, replica] = shard->Names();
    if (!primary.empty()) supervisor_.Terminate(primary);
    if (!replica.empty()) supervisor_.Terminate(replica);
  }
}

ClusterRouter::Shard* ClusterRouter::FindShard(const std::string& id) {
  for (auto& shard : shards_) {
    if (shard->id == id) return shard.get();
  }
  return nullptr;
}

easytime::Result<ClusterRouter::Shard*> ClusterRouter::RouteKey(
    std::string_view key, bool stable) {
  std::string id;
  if (stable) {
    EASYTIME_ASSIGN_OR_RETURN(id, map_.Owner(key));
  } else {
    std::map<std::string, size_t> load;
    for (const auto& shard : shards_) {
      // A down shard reports saturation so bounded-load routes around it.
      load[shard->id] = shard->down.load()
                            ? std::numeric_limits<size_t>::max() / 2
                            : shard->outstanding.load();
    }
    EASYTIME_ASSIGN_OR_RETURN(id, map_.Pick(key, load));
  }
  Shard* shard = FindShard(id);
  if (shard == nullptr) return Status::Internal("no shard '" + id + "'");
  return shard;
}

easytime::Result<std::string> ClusterRouter::OwnerShard(
    const std::string& dataset) const {
  return map_.Owner(dataset);
}

easytime::Status ClusterRouter::KillShardPrimary(const std::string& shard_id,
                                                 int sig) {
  Shard* shard = FindShard(shard_id);
  if (shard == nullptr) return Status::NotFound("no shard '" + shard_id + "'");
  return supervisor_.Kill(shard->Names().first, sig);
}

// ----- the worker exchange -------------------------------------------------

easytime::Result<std::string> ClusterRouter::Exchange(Shard& shard,
                                                      uint16_t port,
                                                      const std::string& line,
                                                      bool fresh, bool* sent) {
  bool unused = false;
  if (sent == nullptr) sent = &unused;
  *sent = false;
  if (port == 0) {
    return Status::Unavailable("shard " + shard.id + " has no worker endpoint");
  }
  std::unique_ptr<serve::TcpClient> client;
  if (!fresh) {
    std::lock_guard<std::mutex> lock(shard.pool_mu);
    if (auto it = shard.pool.find(port); it != shard.pool.end()) {
      client = std::move(it->second);
      shard.pool.erase(it);
    }
  }
  if (client == nullptr) {
    client = std::make_unique<serve::TcpClient>(port, serve::RetryPolicy(),
                                                options_.auth_token);
  }
  auto reply = client->SendLineOnce(line, sent);
  std::lock_guard<std::mutex> lock(shard.pool_mu);
  // A broken connection is dropped, not pooled.
  if (client->connected() && shard.pool.size() < kIdleClientsPerShard) {
    shard.pool.emplace(port, std::move(client));
  }
  return reply;
}

easytime::Result<easytime::Json> ClusterRouter::CallWorker(
    Shard& shard, uint16_t port, const std::string& line) {
  EASYTIME_ASSIGN_OR_RETURN(std::string reply,
                            Exchange(shard, port, line, /*fresh=*/false));
  return serve::ParseResponse(reply);
}

// ----- request routing ------------------------------------------------------

std::string ClusterRouter::HandleLine(const std::string& line) {
  int64_t error_id = -1;
  auto parsed =
      serve::ParseRequest(line, options_.max_request_bytes, &error_id);
  if (!parsed.ok()) return ErrorLine(error_id, parsed.status());
  const serve::Request& req = *parsed;
  requests_routed_.fetch_add(1, std::memory_order_relaxed);

  if (req.endpoint == "ping") {
    easytime::Json result = easytime::Json::Object();
    result.Set("pong", true);
    result.Set("scope", "cluster");
    return serve::MakeOkResponse(req.id, std::move(result)).Dump();
  }
  if (req.endpoint == "cluster_status") {
    return serve::MakeOkResponse(req.id, ClusterStatusJson()).Dump();
  }
  if (req.endpoint == "stats") return FanOutStats(req);
  if (req.endpoint == "recommend") return FanOutRecommend(req);
  if (req.endpoint == "flush_cache") return FanOutFlushCache(req);
  if (req.endpoint == "job_status" || req.endpoint == "cancel") {
    return FanOutJobLookup(req, line);
  }

  const std::string dataset = req.params.GetString("dataset", "");
  if (req.endpoint == "append" && dataset.empty()) {
    return ErrorLine(req.id,
                     Status::InvalidArgument("append requires a \"dataset\""));
  }
  // Datasets pin to their owner, and SQL to one fixed owner: its tables live
  // in one worker process, busy or not. Everything else is fungible and
  // takes the bounded-load path, keyed on the request line as received.
  const bool sql = req.endpoint == "sql";
  const std::string_view key = sql                ? std::string_view("sql")
                               : !dataset.empty() ? std::string_view(dataset)
                                                  : std::string_view(line);
  auto shard = RouteKey(key, /*stable=*/sql || !dataset.empty());
  if (!shard.ok()) return ErrorLine(req.id, shard.status());
  if (req.endpoint == "append") {
    return ForwardAtMostOnce(
        **shard, req, line,
        "re-send with an explicit \"start\" offset to make the retry safe");
  }
  if (req.endpoint == "evaluate" || req.endpoint == "backtest") {
    // A job submit is as non-idempotent as an append (a blind retry after an
    // ambiguous drop would start a second job under a new id), so it takes
    // the at-most-once path instead of the retrying read path. Jobs live on
    // the shard that accepted them: the ack is stamped so job_status/cancel
    // can pin with {"shard": ...}.
    return StampResult(
        ForwardAtMostOnce(**shard, req, line,
                          "check job_status before re-submitting (a "
                          "duplicate submit would start a second job)"),
        {{"shard", (*shard)->id}});
  }
  return ForwardRead(**shard, req, line, /*replica_fallback=*/true);
}

std::string ClusterRouter::ForwardRead(Shard& shard, const serve::Request& req,
                                       const std::string& line,
                                       bool replica_fallback) {
  if (!shard.down.load() && shard.breaker->Allow(Clock::now())) {
    shard.outstanding.fetch_add(1, std::memory_order_relaxed);
    // Retries dial fresh: the pooled socket that just failed may have idle
    // siblings from the same dead worker life.
    bool fresh = false;
    auto reply = serve::RetryCall(
        options_.retry,
        [&] {
          return Exchange(shard, shard.primary_port.load(), line,
                          std::exchange(fresh, true));
        },
        // A malformed "deadline_ms" reads as none: the worker rejects it.
        serve::ParseDeadline(req.params).ValueOr(easytime::Deadline()));
    shard.outstanding.fetch_sub(1, std::memory_order_relaxed);
    if (reply.ok()) {
      shard.breaker->RecordSuccess();
      return *reply;
    }
    shard.breaker->RecordFailure(Clock::now());
  }
  // Degraded path: the replica answers from its (possibly stale) mirror.
  if (replica_fallback) {
    auto reply = Exchange(shard, shard.replica_port.load(), line,
                          /*fresh=*/false);
    if (reply.ok()) {
      degraded_responses_.fetch_add(1, std::memory_order_relaxed);
      return StampResult(*reply, {{"degraded", true},
                                  {"degraded_reason",
                                   "shard " + shard.id +
                                       " primary unavailable; replica served "
                                       "a possibly stale answer"}});
    }
  }
  return UnavailableReply(
      req.id, Status::Unavailable(
                  "shard " + shard.id + " is unavailable (no primary" +
                  (replica_fallback ? ", no responsive replica)" : ")")));
}

std::string ClusterRouter::ForwardAtMostOnce(Shard& shard,
                                             const serve::Request& req,
                                             const std::string& line,
                                             const std::string& retry_hint) {
  // At-most-once: only failures that PROVE the worker never saw the request
  // (connect-level failures, the worker's own clean Unavailable rejection)
  // come back Unavailable and are retried. An ambiguous transport drop after
  // bytes were sent becomes the final reply (an OK value, so RetryCall
  // stops) — a blind retry could apply the request twice.
  auto reply = serve::RetryCall(
      options_.retry, [&]() -> easytime::Result<std::string> {
        if (shard.down.load() || shard.promoting.load()) {
          return Status::Unavailable(
              "shard " + shard.id +
              " has no primary (failover in progress); the request cannot "
              "be durably accepted");
        }
        // Always dial fresh instead of reusing a pooled idle socket: a
        // worker restart between health ticks leaves pool entries
        // half-dead, where the first write "succeeds" into the local buffer
        // and a provably-unexecuted request would be misreported as
        // ambiguous. A fresh connect that fails proves the worker never saw
        // the request, keeping the retry safe.
        bool sent = false;
        auto r = Exchange(shard, shard.primary_port.load(), line,
                          /*fresh=*/true, &sent);
        if (!r.ok()) {
          shard.breaker->RecordFailure(Clock::now());
          if (!sent) return r.status();  // nothing was sent: retry is safe
          append_ambiguous_.fetch_add(1, std::memory_order_relaxed);
          return UnavailableReply(
              req.id, Status::Unavailable(
                          "outcome unknown (connection lost after the request "
                          "was sent); not retried — " +
                          retry_hint));
        }
        shard.breaker->RecordSuccess();
        // A clean worker-side Unavailable (admission shed) was not applied.
        auto unwrapped = serve::ParseResponse(*r);
        if (!unwrapped.ok() && unwrapped.status().IsUnavailable()) {
          return unwrapped.status();
        }
        return r;
      },
      serve::ParseDeadline(req.params).ValueOr(easytime::Deadline()));
  return reply.ok() ? *reply : UnavailableReply(req.id, reply.status());
}

std::string ClusterRouter::UnavailableReply(int64_t id, const Status& why) {
  unavailable_responses_.fetch_add(1, std::memory_order_relaxed);
  return ErrorLine(id, why);
}

// ----- fan-out + merge ------------------------------------------------------

std::vector<ClusterRouter::ShardAnswer> ClusterRouter::AskEveryShard(
    const std::string& endpoint, const easytime::Json& params,
    bool replica_fallback) {
  fanouts_.fetch_add(1, std::memory_order_relaxed);
  const std::string line = serve::MakeRequestLine(endpoint, params);
  std::vector<ShardAnswer> answers;
  for (auto& shard : shards_) {
    auto result = CallWorker(*shard, shard->primary_port.load(), line);
    const bool from_replica = !result.ok() && replica_fallback &&
                              shard->replica_port.load() != 0;
    if (from_replica) {
      result = CallWorker(*shard, shard->replica_port.load(), line);
    }
    answers.push_back(ShardAnswer{shard.get(), std::move(result),
                                  from_replica});
  }
  return answers;
}

std::string ClusterRouter::FanOutStats(const serve::Request& req) {
  easytime::Json shards = easytime::Json::Object();
  easytime::Json totals = easytime::Json::Object();
  int64_t requests = 0, ok_count = 0, errors = 0, rejected = 0;
  int64_t deadline_exceeded = 0, worker_degraded = 0;
  size_t responding = 0;
  bool degraded = false;
  for (auto& [shard, stats, from_replica] :
       AskEveryShard("stats", easytime::Json::Object(), true)) {
    if (!stats.ok()) {
      degraded = true;
      easytime::Json down = easytime::Json::Object();
      down.Set("unavailable", true);
      shards.Set(shard->id, std::move(down));
      continue;
    }
    ++responding;
    if (from_replica) degraded = true;
    deadline_exceeded += stats->GetInt("deadline_exceeded", 0);
    worker_degraded += stats->GetInt("degraded_responses", 0);
    const easytime::Json& endpoints = stats->Get("endpoints");
    if (endpoints.is_object()) {
      for (const auto& name : endpoints.keys()) {
        const easytime::Json& e = endpoints.Get(name);
        requests += e.GetInt("requests", 0);
        ok_count += e.GetInt("ok", 0);
        errors += e.GetInt("errors", 0);
        rejected += e.GetInt("rejected", 0);
      }
    }
    if (from_replica) stats->Set("from_replica", true);
    shards.Set(shard->id, std::move(*stats));
  }
  totals.Set("requests", requests);
  totals.Set("ok", ok_count);
  totals.Set("errors", errors);
  totals.Set("rejected", rejected);
  totals.Set("deadline_exceeded", deadline_exceeded);
  totals.Set("worker_degraded_responses", worker_degraded);

  easytime::Json router = easytime::Json::Object();
  router.Set("requests_routed",
             static_cast<int64_t>(requests_routed_.load()));
  router.Set("fanouts", static_cast<int64_t>(fanouts_.load()));
  router.Set("degraded_responses",
             static_cast<int64_t>(degraded_responses_.load()));
  router.Set("unavailable_responses",
             static_cast<int64_t>(unavailable_responses_.load()));
  router.Set("append_ambiguous",
             static_cast<int64_t>(append_ambiguous_.load()));
  router.Set("failovers", static_cast<int64_t>(failovers_.load()));
  router.Set("frontend_connections",
             frontend_ ? static_cast<int64_t>(frontend_->open_connections())
                       : int64_t{0});

  easytime::Json out = easytime::Json::Object();
  out.Set("scope", "cluster");
  out.Set("shards_responding", static_cast<int64_t>(responding));
  out.Set("shards_total", static_cast<int64_t>(shards_.size()));
  if (degraded) out.Set("degraded", true);
  out.Set("totals", std::move(totals));
  out.Set("router", std::move(router));
  out.Set("replication", replicator_.StatsJson());
  out.Set("workers", supervisor_.StatsJson());
  out.Set("shards", std::move(shards));
  return serve::MakeOkResponse(req.id, std::move(out)).Dump();
}

std::string ClusterRouter::FanOutRecommend(const serve::Request& req) {
  // Every shard ranks from its own knowledge (all carry the full suite;
  // each adds its own locally committed evaluations); scores are averaged
  // across responders.
  struct Tally {
    double score_sum = 0.0;
    size_t votes = 0;
  };
  std::map<std::string, Tally> tallies;
  size_t responding = 0;
  bool degraded = false;
  // The shards rank every method: a "k" cut per shard would average a
  // method just outside one shard's top k over fewer shards.
  easytime::Json full = easytime::Json::Object();
  for (const std::string& key : req.params.keys()) {
    if (key != "k") full.Set(key, req.params.Get(key));
  }
  for (auto& [shard, rec, from_replica] :
       AskEveryShard("recommend", full, true)) {
    if (!rec.ok() || from_replica) degraded = true;
    if (!rec.ok()) continue;
    ++responding;
    const easytime::Json& items = rec->Get("recommendations");
    if (!items.is_array()) continue;
    for (const easytime::Json& item : items.items()) {
      const std::string method = item.GetString("method", "");
      if (method.empty()) continue;
      Tally& t = tallies[method];
      t.score_sum += item.GetDouble("score", 0.0);
      ++t.votes;
    }
  }
  if (responding == 0) {
    return UnavailableReply(
        req.id, Status::Unavailable("no shard answered recommend"));
  }
  std::vector<std::pair<std::string, double>> ranked;
  for (const auto& [method, t] : tallies) {
    ranked.emplace_back(method, t.score_sum / static_cast<double>(t.votes));
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.second > b.second || (a.second == b.second && a.first < b.first);
  });
  const size_t k = static_cast<size_t>(
      std::max<int64_t>(0, req.params.GetInt("k", 0)));
  if (k > 0 && ranked.size() > k) ranked.resize(k);

  easytime::Json items = easytime::Json::Array();
  for (const auto& [method, score] : ranked) {
    easytime::Json item = easytime::Json::Object();
    item.Set("method", method);
    item.Set("score", score);
    items.Append(std::move(item));
  }
  easytime::Json result = easytime::Json::Object();
  result.Set("recommendations", std::move(items));
  result.Set("scope", "cluster");
  result.Set("shards_merged", static_cast<int64_t>(responding));
  if (degraded) {
    result.Set("degraded", true);
    degraded_responses_.fetch_add(1, std::memory_order_relaxed);
  }
  return serve::MakeOkResponse(req.id, std::move(result)).Dump();
}

std::string ClusterRouter::FanOutFlushCache(const serve::Request& req) {
  int64_t flushed = 0;
  size_t responding = 0;
  for (auto& [shard, resp, from_replica] :
       AskEveryShard("flush_cache", req.params, false)) {
    if (resp.ok()) {
      flushed += resp->GetInt("flushed", 0);
      ++responding;
    }
  }
  easytime::Json result = easytime::Json::Object();
  result.Set("flushed", flushed);
  result.Set("shards_responding", static_cast<int64_t>(responding));
  if (responding < shards_.size()) result.Set("degraded", true);
  return serve::MakeOkResponse(req.id, std::move(result)).Dump();
}

std::string ClusterRouter::FanOutJobLookup(const serve::Request& req,
                                           const std::string& line) {
  // Jobs live on the shard that accepted them, and every worker numbers its
  // jobs from 1, so an id alone may name a different job on each shard. A
  // "shard" param (stamped on every submit ack) pins the lookup to that
  // shard's primary: a replica runs no jobs and could only say NotFound.
  const std::string pinned = req.params.GetString("shard", "");
  if (!pinned.empty()) {
    Shard* shard = FindShard(pinned);
    if (shard == nullptr) {
      return ErrorLine(req.id, Status::NotFound("no shard '" + pinned + "'"));
    }
    return ForwardRead(*shard, req, line, /*replica_fallback=*/false);
  }
  // Un-pinned: ask every primary, and act only when exactly one knows the id.
  Shard* owner = nullptr;
  Status verdict = Status::NotFound("no shard knows this job");
  for (const ShardAnswer& a : AskEveryShard("job_status", req.params, false)) {
    const Status& st = a.result.status();
    if (a.result.ok() && owner != nullptr) {
      return ErrorLine(req.id, Status::InvalidArgument(
                                   "more than one shard has a job with this "
                                   "id; pin the request with the \"shard\" "
                                   "its submit ack carried"));
    }
    if (a.result.ok()) {
      owner = a.shard;
    } else if (st.IsUnavailable()) {
      verdict = Status::Unavailable(
          "at least one shard did not answer and may own this job id; retry "
          "shortly, or pin the request with the \"shard\" its submit ack "
          "carried");
    } else if (!st.IsNotFound()) {
      return ErrorLine(req.id, st);  // e.g. no numeric "job" id
    }
  }
  // An unreachable shard (dead or failing-over primary) may own the job, or
  // a second job with this id: claiming NotFound would make a cancel
  // silently drop it, and answering from the one known owner might act on
  // another client's job. Tell the client to retry or pin.
  if (verdict.IsUnavailable()) return UnavailableReply(req.id, verdict);
  if (owner == nullptr) return ErrorLine(req.id, verdict);
  return ForwardRead(*owner, req, line, /*replica_fallback=*/false);
}

// ----- health + failover ----------------------------------------------------

void ClusterRouter::HealthLoop() {
  const std::chrono::duration<double, std::milli> interval(
      options_.health_interval_ms);
  std::unique_lock<std::mutex> lock(health_mu_);
  while (running_.load()) {
    lock.unlock();
    HealthCheckNow();
    lock.lock();
    health_cv_.wait_for(lock, interval, [this] { return !running_.load(); });
  }
}

void ClusterRouter::HealthCheckNow() {
  for (auto& shard : shards_) CheckShard(*shard);
}

void ClusterRouter::CheckShard(Shard& shard) {
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.promoting.load()) {
    FinishFailoverIfPromoted(shard);
    return;
  }
  if (!supervisor_.Alive(shard.primary_name)) {
    StartFailover(shard);
    return;
  }
  // Liveness ping feeds the breaker so an unresponsive-but-running primary
  // degrades reads instead of hanging them.
  auto pong =
      CallWorker(shard, shard.primary_port.load(),
                 serve::MakeRequestLine("ping", easytime::Json::Object()));
  if (pong.ok()) {
    shard.breaker->RecordSuccess();
    shard.down.store(false);
  } else {
    shard.breaker->RecordFailure(Clock::now());
  }
}

void ClusterRouter::StartFailover(Shard& shard) {
  shard.down.store(true);
  shard.DropIdleClients();
  if (!shard.replica_name.empty() && supervisor_.Alive(shard.replica_name)) {
    EASYTIME_LOG(Warning) << "router: " << shard.id << " primary '"
                       << shard.primary_name
                       << "' died; promoting replica '" << shard.replica_name
                       << "'";
    replicator_.SetLink(shard.id, shard.primary_store, 0);  // pause shipping
    easytime::Json params = easytime::Json::Object();
    params.Set("source_dir", shard.primary_store);
    auto resp = CallWorker(shard, shard.replica_port.load(),
                           serve::MakeRequestLine("promote", params));
    if (resp.ok()) {
      shard.promoting.store(true);
      return;
    }
    EASYTIME_LOG(Error) << "router: promote call to " << shard.replica_name
                        << " failed: " << resp.status().ToString();
  }
  // No (responsive) replica: restart the primary on its durable store under
  // the supervisor's backoff.
  auto port = supervisor_.Restart(shard.primary_name);
  if (port.ok()) {
    EASYTIME_LOG(Warning) << "router: restarted " << shard.primary_name
                       << " on port " << *port;
    shard.primary_port.store(*port);
    shard.breaker->Reset();
    shard.down.store(false);
    failovers_.fetch_add(1, std::memory_order_relaxed);
    shard.failovers.fetch_add(1, std::memory_order_relaxed);
    if (!shard.replica_name.empty()) {
      replicator_.SetLink(shard.id, shard.primary_store,
                          shard.replica_port.load());
    }
  }
  // !port.ok(): backoff window still open — the next health tick retries.
}

void ClusterRouter::FinishFailoverIfPromoted(Shard& shard) {
  auto status = CallWorker(
      shard, shard.replica_port.load(),
      serve::MakeRequestLine("replica_status", easytime::Json::Object()));
  if (!status.ok()) return;  // promotion in progress; ask again next tick
  const std::string err = status->GetString("promote_error", "");
  if (!err.empty()) {
    EASYTIME_LOG(Error) << "router: promotion of " << shard.replica_name
                        << " failed: " << err
                        << "; falling back to restarting "
                        << shard.primary_name;
    shard.promoting.store(false);
    return;  // next tick: StartFailover tries the restart path
  }
  if (status->GetString("role", "") != "primary") return;  // still promoting

  // The follower is now the shard primary, serving on its (unchanged) port
  // from the caught-up store.
  const std::string old_primary = shard.primary_name;
  shard.primary_port.store(shard.replica_port.load());
  shard.replica_port.store(0);
  {
    std::lock_guard<std::mutex> lock(shard.meta_mu);
    shard.primary_name = shard.replica_name;
    shard.primary_store = shard.replica_store;
    shard.replica_name.clear();
    shard.replica_store.clear();
  }
  shard.breaker->Reset();
  shard.DropIdleClients();
  shard.promoting.store(false);
  shard.down.store(false);
  failovers_.fetch_add(1, std::memory_order_relaxed);
  shard.failovers.fetch_add(1, std::memory_order_relaxed);
  supervisor_.Forget(old_primary);
  EASYTIME_LOG(Warning) << "router: " << shard.id << " promoted '"
                     << shard.primary_name << "' to primary on port "
                     << shard.primary_port.load();
  if (!options_.replicate) return;
  if (auto spawned = SpawnReplica(shard); !spawned.ok()) {
    EASYTIME_LOG(Error) << "router: could not spawn replacement replica for "
                        << shard.id << ": " << spawned.ToString();
  }
}

easytime::Status ClusterRouter::SpawnReplica(Shard& shard) {
  const std::string generation = std::to_string(shard.replica_generation++);
  const std::string name = shard.id + "-r" + generation;
  // A fresh staging dir: the new primary's WAL continues the old chain, and
  // stale leftovers from a previous replica life must not mask new ships.
  const std::string store =
      options_.work_dir + "/" + shard.id + "-replica-" + generation;
  EASYTIME_ASSIGN_OR_RETURN(uint16_t port,
                            SpawnWorker(name, "replica", store));
  {
    std::lock_guard<std::mutex> lock(shard.meta_mu);
    shard.replica_name = name;
    shard.replica_store = store;
  }
  shard.replica_port.store(port);
  replicator_.SetLink(shard.id, shard.primary_store, port);
  EASYTIME_LOG(Info) << "router: " << shard.id << " replica '" << name
                     << "' on port " << port;
  return Status::OK();
}

// ----- observability --------------------------------------------------------

easytime::Json ClusterRouter::ClusterStatusJson() {
  easytime::Json shards = easytime::Json::Object();
  for (auto& shard : shards_) {
    easytime::Json j = easytime::Json::Object();
    auto [primary, replica] = shard->Names();
    j.Set("primary", primary);
    j.Set("primary_port", static_cast<int64_t>(shard->primary_port.load()));
    j.Set("replica", replica);
    j.Set("replica_port", static_cast<int64_t>(shard->replica_port.load()));
    j.Set("down", shard->down.load());
    j.Set("promoting", shard->promoting.load());
    j.Set("failovers", static_cast<int64_t>(shard->failovers.load()));
    j.Set("outstanding", static_cast<int64_t>(shard->outstanding.load()));
    // Indexed by CircuitBreaker::State.
    static constexpr const char* kBreaker[] = {"closed", "open", "half_open"};
    j.Set("breaker", kBreaker[static_cast<int>(shard->breaker->state())]);
    shards.Set(shard->id, std::move(j));
  }
  easytime::Json out = easytime::Json::Object();
  out.Set("scope", "cluster");
  out.Set("num_shards", static_cast<int64_t>(shards_.size()));
  out.Set("port", static_cast<int64_t>(port()));
  out.Set("shards", std::move(shards));
  out.Set("replication", replicator_.StatsJson());
  out.Set("workers", supervisor_.StatsJson());
  return out;
}

}  // namespace easytime::cluster
