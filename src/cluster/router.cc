#include "cluster/router.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <limits>
#include <map>
#include <utility>

#include "common/logging.h"

namespace easytime::cluster {

namespace {
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

serve::RetryPolicy OneShot() {
  serve::RetryPolicy p;
  p.max_attempts = 1;
  return p;
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
    if (options_.replicate) {
      shard->replica_name = shard->id + "-r0";
      shard->replica_store =
          options_.work_dir + "/" + shard->id + "-replica-0";
      EASYTIME_ASSIGN_OR_RETURN(
          uint16_t rport,
          SpawnWorker(shard->replica_name, "replica", shard->replica_store));
      shard->replica_port.store(rport);
      replicator_.SetLink(shard->id, shard->primary_store, rport);
    }
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
  running_.store(false);
  if (health_thread_.joinable()) health_thread_.join();
  replicator_.Stop();
  if (frontend_) frontend_->Stop();
  for (auto& shard : shards_) {
    std::string primary, replica;
    {
      std::lock_guard<std::mutex> lock(shard->meta_mu);
      primary = shard->primary_name;
      replica = shard->replica_name;
    }
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
  std::string primary;
  {
    std::lock_guard<std::mutex> lock(shard->meta_mu);
    primary = shard->primary_name;
  }
  return supervisor_.Kill(primary, sig);
}

// ----- connection pooling ---------------------------------------------------

std::unique_ptr<serve::TcpClient> ClusterRouter::AcquireClient(
    Shard& shard, uint16_t port) {
  {
    std::lock_guard<std::mutex> lock(shard.pool_mu);
    for (auto it = shard.pool.begin(); it != shard.pool.end(); ++it) {
      if (it->port == port) {
        auto client = std::move(it->client);
        shard.pool.erase(it);
        return client;
      }
    }
  }
  return std::make_unique<serve::TcpClient>(port, OneShot(),
                                            options_.auth_token);
}

void ClusterRouter::ReleaseClient(Shard& shard, uint16_t port,
                                  std::unique_ptr<serve::TcpClient> client) {
  if (!client->connected()) return;  // broken: let it die
  std::lock_guard<std::mutex> lock(shard.pool_mu);
  if (shard.pool.size() >= options_.client_pool_per_shard) return;
  shard.pool.push_back(IdleClient{port, std::move(client)});
}

easytime::Result<std::string> ClusterRouter::SendToWorker(
    Shard& shard, uint16_t port, const std::string& line,
    const serve::RetryPolicy& policy) {
  if (port == 0) return Status::Unavailable("no worker endpoint");
  auto client = AcquireClient(shard, port);
  auto result =
      serve::RetryCall(policy, [&]() { return client->SendLine(line); });
  ReleaseClient(shard, port, std::move(client));
  return result;
}

easytime::Result<easytime::Json> ClusterRouter::CallWorker(
    Shard& shard, uint16_t port, const std::string& endpoint,
    const easytime::Json& params) {
  if (port == 0) return Status::Unavailable("no worker endpoint");
  auto client = AcquireClient(shard, port);
  auto result = client->Call(endpoint, params);
  ReleaseClient(shard, port, std::move(client));
  return result;
}

// ----- request routing ------------------------------------------------------

std::string ClusterRouter::HandleLine(const std::string& line) {
  int64_t error_id = -1;
  auto parsed =
      serve::ParseRequest(line, options_.max_request_bytes, &error_id);
  if (!parsed.ok()) {
    return serve::MakeErrorResponse(error_id, parsed.status()).Dump();
  }
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
  if (req.endpoint == "append") {
    if (dataset.empty()) {
      return serve::MakeErrorResponse(
                 req.id,
                 Status::InvalidArgument("append requires a \"dataset\""))
          .Dump();
    }
    auto shard = RouteKey(dataset, /*stable=*/true);
    if (!shard.ok()) {
      return serve::MakeErrorResponse(req.id, shard.status()).Dump();
    }
    return ForwardAtMostOnce(
        **shard, req, line,
        "re-send with an explicit \"start\" offset to make the retry safe");
  }

  // Reads: datasets pin to their owner; everything else is fungible and
  // takes the bounded-load path keyed on its most meaningful field.
  std::string key;
  bool stable = false;
  if (!dataset.empty()) {
    key = dataset;
    stable = true;
  } else if (req.endpoint == "sql") {
    key = req.params.GetString("sql", "");
  } else if (req.endpoint == "ask") {
    key = req.params.GetString("question", "");
  } else {
    key = serve::CanonicalKey(req.endpoint, req.params);
  }
  auto shard = RouteKey(key, stable);
  if (!shard.ok()) {
    return serve::MakeErrorResponse(req.id, shard.status()).Dump();
  }
  const bool is_job_submit =
      req.endpoint == "evaluate" || req.endpoint == "backtest";
  // A job submit is as non-idempotent as an append (a blind retry after an
  // ambiguous drop would start a second job under a new id), so it takes
  // the at-most-once path instead of the retrying read path.
  std::string response =
      is_job_submit
          ? ForwardAtMostOnce(**shard, req, line,
                              "check job_status before re-submitting (a "
                              "duplicate submit would start a second job)")
          : ForwardRead(**shard, req, line);
  if (is_job_submit) {
    // Jobs live on the shard that accepted them: stamp the submit ack so
    // job_status/cancel can pin with {"shard": ...} instead of fanning out.
    auto parsed = easytime::Json::Parse(response);
    if (parsed.ok() && parsed->GetBool("ok", false) &&
        parsed->Get("result").is_object()) {
      easytime::Json result = parsed->Get("result");
      result.Set("shard", (*shard)->id);
      parsed->Set("result", std::move(result));
      response = parsed->Dump();
    }
  }
  return response;
}

std::string ClusterRouter::TagDegraded(const std::string& response_line,
                                       const std::string& reason) {
  degraded_responses_.fetch_add(1, std::memory_order_relaxed);
  auto resp = easytime::Json::Parse(response_line);
  if (!resp.ok() || !resp->GetBool("ok", false) ||
      !resp->Get("result").is_object()) {
    return response_line;  // errors pass through untagged
  }
  easytime::Json result = resp->Get("result");
  result.Set("degraded", true);
  result.Set("degraded_reason", reason);
  resp->Set("result", std::move(result));
  return resp->Dump();
}

std::string ClusterRouter::ForwardRead(Shard& shard, const serve::Request& req,
                                       const std::string& line) {
  const auto now = Clock::now();
  const bool primary_usable =
      !shard.down.load() && shard.breaker->Allow(now);
  if (primary_usable) {
    shard.outstanding.fetch_add(1, std::memory_order_relaxed);
    auto resp =
        SendToWorker(shard, shard.primary_port.load(), line, options_.retry);
    shard.outstanding.fetch_sub(1, std::memory_order_relaxed);
    if (resp.ok()) {
      shard.breaker->RecordSuccess();
      return *resp;
    }
    shard.breaker->RecordFailure(Clock::now());
  }
  // Degraded path: the replica answers from its (possibly stale) mirror.
  const uint16_t rport = shard.replica_port.load();
  if (rport != 0) {
    auto resp = SendToWorker(shard, rport, line, OneShot());
    if (resp.ok()) {
      return TagDegraded(*resp, "shard " + shard.id +
                                    " primary unavailable; replica served a "
                                    "possibly stale answer");
    }
  }
  unavailable_responses_.fetch_add(1, std::memory_order_relaxed);
  return serve::MakeErrorResponse(
             req.id, Status::Unavailable("shard " + shard.id +
                                         " is unavailable (no primary, no "
                                         "responsive replica)"))
      .Dump();
}

std::string ClusterRouter::ForwardAtMostOnce(Shard& shard,
                                             const serve::Request& req,
                                             const std::string& line,
                                             const std::string& retry_hint) {
  // At-most-once: only failures that PROVE the worker never saw the request
  // (connect-level failures, the worker's own clean Unavailable rejection)
  // are retried. An ambiguous transport drop after bytes were sent is
  // surfaced as Unavailable — a blind retry could apply the request twice.
  serve::RetryPolicy policy = options_.retry;
  easytime::Status last = Status::Unavailable("request not attempted");
  for (int attempt = 0; attempt < std::max(1, policy.max_attempts);
       ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          policy.DelayMs(attempt - 1)));
    }
    if (shard.down.load() || shard.promoting.load()) {
      last = Status::Unavailable("shard " + shard.id +
                                 " has no primary (failover in progress); "
                                 "the request cannot be durably accepted");
      continue;
    }
    const uint16_t port = shard.primary_port.load();
    if (port == 0) {
      last = Status::Unavailable("shard " + shard.id + " has no primary");
      continue;
    }
    // Always dial fresh instead of reusing a pooled idle socket: a worker
    // restart between health ticks leaves pool entries half-dead, where the
    // first write "succeeds" into the local buffer and a provably-unexecuted
    // request would be misreported as ambiguous. A fresh connect that fails
    // proves the worker never saw the request, keeping the retry safe.
    auto client = std::make_unique<serve::TcpClient>(port, OneShot(),
                                                     options_.auth_token);
    bool request_sent = false;
    auto resp = client->SendLineOnce(line, &request_sent);
    if (resp.ok()) {
      ReleaseClient(shard, port, std::move(client));
      shard.breaker->RecordSuccess();
      // A clean worker-side Unavailable (admission shed) was not applied —
      // safe to retry under the policy.
      auto parsed = easytime::Json::Parse(*resp);
      if (parsed.ok() && !parsed->GetBool("ok", true) &&
          parsed->Get("error").GetString("code", "") == "Unavailable") {
        last = Status::Unavailable(
            parsed->Get("error").GetString("message", "worker shed"));
        continue;
      }
      return *resp;
    }
    shard.breaker->RecordFailure(Clock::now());
    if (request_sent) {
      append_ambiguous_.fetch_add(1, std::memory_order_relaxed);
      unavailable_responses_.fetch_add(1, std::memory_order_relaxed);
      return serve::MakeErrorResponse(
                 req.id,
                 Status::Unavailable(
                     "outcome unknown (connection lost after the request "
                     "was sent); not retried — " +
                     retry_hint))
          .Dump();
    }
    last = resp.status();  // nothing was sent: retry is safe
  }
  unavailable_responses_.fetch_add(1, std::memory_order_relaxed);
  return serve::MakeErrorResponse(req.id, last).Dump();
}

// ----- fan-out + merge ------------------------------------------------------

std::string ClusterRouter::FanOutStats(const serve::Request& req) {
  fanouts_.fetch_add(1, std::memory_order_relaxed);
  easytime::Json shards = easytime::Json::Object();
  easytime::Json totals = easytime::Json::Object();
  uint64_t requests = 0, ok_count = 0, errors = 0, rejected = 0;
  uint64_t deadline_exceeded = 0, worker_degraded = 0;
  size_t responding = 0;
  bool degraded = false;
  for (auto& shard : shards_) {
    auto stats = CallWorker(*shard, shard->primary_port.load(), "stats",
                            easytime::Json::Object());
    bool from_replica = false;
    if (!stats.ok() && shard->replica_port.load() != 0) {
      stats = CallWorker(*shard, shard->replica_port.load(), "stats",
                         easytime::Json::Object());
      from_replica = true;
    }
    if (!stats.ok()) {
      degraded = true;
      easytime::Json down = easytime::Json::Object();
      down.Set("unavailable", true);
      shards.Set(shard->id, std::move(down));
      continue;
    }
    ++responding;
    if (from_replica) degraded = true;
    deadline_exceeded +=
        static_cast<uint64_t>(stats->GetInt("deadline_exceeded", 0));
    worker_degraded +=
        static_cast<uint64_t>(stats->GetInt("degraded_responses", 0));
    const easytime::Json& endpoints = stats->Get("endpoints");
    if (endpoints.is_object()) {
      for (const auto& name : endpoints.keys()) {
        const easytime::Json& e = endpoints.Get(name);
        requests += static_cast<uint64_t>(e.GetInt("requests", 0));
        ok_count += static_cast<uint64_t>(e.GetInt("ok", 0));
        errors += static_cast<uint64_t>(e.GetInt("errors", 0));
        rejected += static_cast<uint64_t>(e.GetInt("rejected", 0));
      }
    }
    if (from_replica) stats->Set("from_replica", true);
    shards.Set(shard->id, std::move(*stats));
  }
  totals.Set("requests", static_cast<int64_t>(requests));
  totals.Set("ok", static_cast<int64_t>(ok_count));
  totals.Set("errors", static_cast<int64_t>(errors));
  totals.Set("rejected", static_cast<int64_t>(rejected));
  totals.Set("deadline_exceeded", static_cast<int64_t>(deadline_exceeded));
  totals.Set("worker_degraded_responses",
             static_cast<int64_t>(worker_degraded));

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
  fanouts_.fetch_add(1, std::memory_order_relaxed);
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
  for (auto& shard : shards_) {
    auto rec =
        CallWorker(*shard, shard->primary_port.load(), "recommend", req.params);
    if (!rec.ok() && shard->replica_port.load() != 0) {
      rec = CallWorker(*shard, shard->replica_port.load(), "recommend",
                       req.params);
      if (rec.ok()) degraded = true;
    }
    if (!rec.ok()) {
      degraded = true;
      continue;
    }
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
    unavailable_responses_.fetch_add(1, std::memory_order_relaxed);
    return serve::MakeErrorResponse(
               req.id, Status::Unavailable("no shard answered recommend"))
        .Dump();
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
  fanouts_.fetch_add(1, std::memory_order_relaxed);
  int64_t flushed = 0;
  size_t responding = 0;
  for (auto& shard : shards_) {
    auto resp = CallWorker(*shard, shard->primary_port.load(), "flush_cache",
                           req.params);
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
  // Jobs live on the shard that accepted them. A "shard" param pins the
  // lookup; otherwise every shard is asked and the first one that KNOWS the
  // job answers (the rest say NotFound).
  const std::string pinned = req.params.GetString("shard", "");
  if (!pinned.empty()) {
    Shard* shard = FindShard(pinned);
    if (shard == nullptr) {
      return serve::MakeErrorResponse(
                 req.id, Status::NotFound("no shard '" + pinned + "'"))
          .Dump();
    }
    return ForwardRead(*shard, req, line);
  }
  bool unreachable = false;
  for (auto& shard : shards_) {
    auto resp =
        SendToWorker(*shard, shard->primary_port.load(), line, OneShot());
    if (!resp.ok()) {
      unreachable = true;  // this shard might own the job
      continue;
    }
    auto parsed = easytime::Json::Parse(*resp);
    if (parsed.ok() && !parsed->GetBool("ok", true) &&
        parsed->Get("error").GetString("code", "") == "NotFound") {
      continue;
    }
    return *resp;
  }
  // An unreachable shard (dead or failing-over primary) may own the job:
  // claiming NotFound would make a fanned cancel silently drop it and a
  // status poll report a live job as gone. Tell the client to retry.
  if (unreachable) {
    unavailable_responses_.fetch_add(1, std::memory_order_relaxed);
    return serve::MakeErrorResponse(
               req.id,
               Status::Unavailable(
                   "no responding shard knows this job, but at least one "
                   "shard did not answer and may own it; retry shortly"))
        .Dump();
  }
  return serve::MakeErrorResponse(
             req.id, Status::NotFound("no shard knows this job"))
      .Dump();
}

// ----- health + failover ----------------------------------------------------

void ClusterRouter::HealthLoop() {
  while (running_.load()) {
    HealthCheckNow();
    const auto step = std::chrono::milliseconds(10);
    auto remaining =
        std::chrono::duration<double, std::milli>(options_.health_interval_ms);
    while (running_.load() && remaining.count() > 0) {
      std::this_thread::sleep_for(step);
      remaining -= step;
    }
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
  auto pong = CallWorker(shard, shard.primary_port.load(), "ping",
                         easytime::Json::Object());
  if (pong.ok()) {
    shard.breaker->RecordSuccess();
    shard.down.store(false);
  } else {
    shard.breaker->RecordFailure(Clock::now());
  }
}

void ClusterRouter::StartFailover(Shard& shard) {
  shard.down.store(true);
  {
    std::lock_guard<std::mutex> lock(shard.pool_mu);
    shard.pool.clear();
  }
  if (!shard.replica_name.empty() && supervisor_.Alive(shard.replica_name)) {
    EASYTIME_LOG(Warning) << "router: " << shard.id << " primary '"
                       << shard.primary_name
                       << "' died; promoting replica '" << shard.replica_name
                       << "'";
    replicator_.SetLink(shard.id, shard.primary_store, 0);  // pause shipping
    easytime::Json params = easytime::Json::Object();
    params.Set("source_dir", shard.primary_store);
    auto resp =
        CallWorker(shard, shard.replica_port.load(), "promote", params);
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
  auto status = CallWorker(shard, shard.replica_port.load(), "replica_status",
                           easytime::Json::Object());
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
  {
    std::lock_guard<std::mutex> lock(shard.pool_mu);
    shard.pool.clear();
  }
  shard.promoting.store(false);
  shard.down.store(false);
  failovers_.fetch_add(1, std::memory_order_relaxed);
  shard.failovers.fetch_add(1, std::memory_order_relaxed);
  supervisor_.Forget(old_primary);
  EASYTIME_LOG(Warning) << "router: " << shard.id << " promoted '"
                     << shard.primary_name << "' to primary on port "
                     << shard.primary_port.load();
  if (options_.replicate) SpawnReplacementReplica(shard);
}

void ClusterRouter::SpawnReplacementReplica(Shard& shard) {
  ++shard.replica_generation;
  const std::string name =
      shard.id + "-r" + std::to_string(shard.replica_generation);
  // A fresh staging dir: the new primary's WAL continues the old chain, and
  // stale leftovers from a previous replica life must not mask new ships.
  const std::string store = options_.work_dir + "/" + shard.id + "-replica-" +
                            std::to_string(shard.replica_generation);
  auto port = SpawnWorker(name, "replica", store);
  if (!port.ok()) {
    EASYTIME_LOG(Error) << "router: could not spawn replacement replica for "
                        << shard.id << ": " << port.status().ToString();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(shard.meta_mu);
    shard.replica_name = name;
    shard.replica_store = store;
  }
  shard.replica_port.store(*port);
  replicator_.SetLink(shard.id, shard.primary_store, *port);
  EASYTIME_LOG(Info) << "router: " << shard.id << " replacement replica '"
                     << name << "' on port " << *port;
}

// ----- observability --------------------------------------------------------

easytime::Json ClusterRouter::ClusterStatusJson() {
  easytime::Json shards = easytime::Json::Object();
  for (auto& shard : shards_) {
    easytime::Json j = easytime::Json::Object();
    std::string primary, replica;
    {
      std::lock_guard<std::mutex> lock(shard->meta_mu);
      primary = shard->primary_name;
      replica = shard->replica_name;
    }
    j.Set("primary", primary);
    j.Set("primary_port", static_cast<int64_t>(shard->primary_port.load()));
    j.Set("replica", replica);
    j.Set("replica_port", static_cast<int64_t>(shard->replica_port.load()));
    j.Set("down", shard->down.load());
    j.Set("promoting", shard->promoting.load());
    j.Set("failovers", static_cast<int64_t>(shard->failovers.load()));
    j.Set("outstanding", static_cast<int64_t>(shard->outstanding.load()));
    switch (shard->breaker->state()) {
      case CircuitBreaker::State::kClosed:
        j.Set("breaker", "closed");
        break;
      case CircuitBreaker::State::kOpen:
        j.Set("breaker", "open");
        break;
      case CircuitBreaker::State::kHalfOpen:
        j.Set("breaker", "half_open");
        break;
    }
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
