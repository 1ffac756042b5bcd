// Cluster tier benchmark (DESIGN.md §14): the three numbers the sharded
// serving tier exists for, emitted as JSON (BENCH_cluster.json via
// bench/run_cluster.sh):
//
//   1. sharding    — pipelined req/sec through the router TCP front-end at
//                    1 / 2 / 4 shards, against a single-process
//                    ForecastServer+TCP baseline (same preset, same
//                    request mix) so the routing hop's cost is visible
//   2. failover    — SIGKILL the only primary: ms until the replica serves
//                    a (tagged) degraded read, ms until promotion restores
//                    first-class service, and proof that the acked append
//                    offset chain survived
//   3. replication — segment-ship lag after a synchronous shipping pass
//
// Spawns real easytime_shard_worker processes (path baked in via
// EASYTIME_WORKER_BIN, like tests/test_cluster.cc).
//
//   ./build/bench/bench_cluster [output.json]

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/replicator.h"
#include "cluster/router.h"
#include "cluster/worker.h"
#include "common/json.h"
#include "common/stopwatch.h"
#include "core/easytime.h"
#include "serve/event_loop.h"
#include "serve/server.h"

using namespace easytime;

namespace {

namespace fs = std::filesystem;

std::string BenchDir(const std::string& leaf) {
  std::string dir =
      (fs::temp_directory_path() / ("easytime_bench_cluster_" + leaf))
          .string();
  fs::remove_all(dir);
  return dir;
}

std::string ForecastLine(const std::string& dataset, int id, int horizon) {
  return R"({"id": )" + std::to_string(id) +
         R"(, "endpoint": "forecast", "params": {"dataset": ")" + dataset +
         R"(", "method": "theta", "horizon": )" + std::to_string(horizon) +
         "}}";
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "bench_cluster: %s\n", what.c_str());
  std::exit(1);
}

// ---- raw pipelined client --------------------------------------------------

int ConnectTo(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (fd < 0 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Die("connect failed");
  }
  int one = 1;  // pipelined bursts must not sit behind Nagle
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

void SendAll(int fd, const std::string& bytes) {
  if (::send(fd, bytes.data(), bytes.size(), 0) !=
      static_cast<ssize_t>(bytes.size())) {
    Die("send failed");
  }
}

void ReadLines(int fd, int n) {
  char buf[4096];
  while (n > 0) {
    ssize_t got = ::recv(fd, buf, sizeof(buf), 0);
    if (got <= 0) Die("connection closed early");
    for (ssize_t i = 0; i < got; ++i) {
      if (buf[i] == '\n') --n;
    }
  }
}

std::string ReadLine(int fd) {
  std::string line;
  char c;
  while (::recv(fd, &c, 1, 0) == 1 && c != '\n') line += c;
  return line;
}

/// One warm round trip whose response is actually parsed and checked, then
/// kClients threads each bursting pipelined forecasts. Returns req/sec.
double MeasurePipelinedRps(uint16_t port,
                           const std::vector<std::string>& datasets,
                           int clients, int bursts, int burst_size) {
  {  // warm every dataset's forecast cache and verify the protocol
    int fd = ConnectTo(port);
    for (size_t d = 0; d < datasets.size(); ++d) {
      SendAll(fd, ForecastLine(datasets[d], 7000 + static_cast<int>(d), 6) +
                      "\n");
      auto resp = Json::Parse(ReadLine(fd));
      if (!resp.ok() || !resp->GetBool("ok", false)) {
        Die("warm-up forecast failed: " +
            (resp.ok() ? resp->Dump() : resp.status().ToString()));
      }
    }
    ::close(fd);
  }

  std::vector<std::thread> workers;
  Stopwatch watch;
  for (int c = 0; c < clients; ++c) {
    workers.emplace_back([&, c]() {
      int fd = ConnectTo(port);
      std::string burst;
      for (int i = 0; i < burst_size; ++i) {
        burst += ForecastLine(datasets[(c + i) % datasets.size()],
                              c * 1000 + i, 6) +
                 "\n";
      }
      for (int b = 0; b < bursts; ++b) {
        SendAll(fd, burst);
        ReadLines(fd, burst_size);
      }
      ::close(fd);
    });
  }
  for (auto& t : workers) t.join();
  return static_cast<double>(clients) * bursts * burst_size /
         watch.ElapsedSeconds();
}

// ---- 1. sharding: router at N shards vs single process ---------------------

cluster::ClusterRouter::Options RouterOptions(const std::string& work_dir) {
  cluster::ClusterRouter::Options opt;
  opt.worker_binary = EASYTIME_WORKER_BIN;
  opt.work_dir = work_dir;
  opt.preset = "small";
  return opt;
}

double MeasureRouterRps(size_t shards,
                        const std::vector<std::string>& datasets, int clients,
                        int bursts, int burst_size) {
  cluster::ClusterRouter::Options opt =
      RouterOptions(BenchDir("shards_" + std::to_string(shards)));
  opt.shards = shards;
  opt.replicate = false;  // throughput of the routed path, not replication
  opt.ship_interval_ms = 0.0;
  cluster::ClusterRouter router(opt);
  if (auto st = router.Start(); !st.ok()) Die("router: " + st.ToString());
  double rps =
      MeasurePipelinedRps(router.port(), datasets, clients, bursts,
                          burst_size);
  router.Stop();
  return rps;
}

double MeasureSingleProcessRps(core::EasyTime* system,
                               const std::vector<std::string>& datasets,
                               int clients, int bursts, int burst_size) {
  serve::ForecastServer server(system);
  server.Start();
  serve::EventLoopServer loop(&server, serve::EventLoopServer::Options());
  if (auto st = loop.Start(); !st.ok()) Die("baseline: " + st.ToString());
  double rps =
      MeasurePipelinedRps(loop.port(), datasets, clients, bursts, burst_size);
  loop.Stop();
  server.Stop();
  return rps;
}

// ---- 2 + 3. failover latency and segment-ship lag --------------------------

struct FailoverNumbers {
  double time_to_degraded_read_ms = 0.0;
  double failover_ms = 0.0;
  bool acked_append_preserved = false;
  // Replication (measured on the same cluster, before the kill).
  double ship_pass_ms = 0.0;
  int64_t primary_last_seq = 0;
  int64_t follower_applied_seq = 0;
  int64_t ship_lag = 0;
  int64_t segments_shipped = 0;
  int64_t appends_last_seq = 0;
  int64_t appends_staged_seq = 0;
};

Json CallRouter(cluster::ClusterRouter& router, int64_t id,
                const std::string& endpoint, Json params) {
  Json req = Json::Object();
  req.Set("id", id);
  req.Set("endpoint", endpoint);
  req.Set("params", std::move(params));
  auto parsed = Json::Parse(router.HandleLine(req.Dump()));
  if (!parsed.ok()) Die("unparseable router response");
  return std::move(*parsed);
}

Json AppendParams(const std::string& dataset, int n, double base) {
  Json params = Json::Object();
  params.Set("dataset", dataset);
  Json arr = Json::Array();
  for (int i = 0; i < n; ++i) arr.Append(base + i);
  params.Set("values", std::move(arr));
  return params;
}

FailoverNumbers MeasureFailover(const std::string& dataset) {
  cluster::ClusterRouter::Options opt = RouterOptions(BenchDir("failover"));
  opt.shards = 1;
  opt.replicate = true;
  opt.health_interval_ms = 25.0;  // the background thread drives failover
  opt.ship_interval_ms = 0.0;     // shipping passes are driven explicitly
  cluster::ClusterRouter router(opt);
  if (auto st = router.Start(); !st.ok()) Die("router: " + st.ToString());

  FailoverNumbers out;

  // Acked appends: durable the moment the ack arrives.
  Json first = CallRouter(router, 1, "append", AppendParams(dataset, 4, 1.0));
  if (!first.GetBool("ok", false)) Die("append failed: " + first.Dump());
  Json second = CallRouter(router, 2, "append", AppendParams(dataset, 3, 5.0));
  if (!second.GetBool("ok", false)) Die("append failed: " + second.Dump());
  const int64_t acked_length = second.Get("result").GetInt("length", 0);

  // Segment-ship lag after one synchronous pass.
  router.replicator()->ShipOnce();
  {
    Stopwatch pass;
    router.replicator()->ShipOnce();
    out.ship_pass_ms = pass.ElapsedMillis();
  }
  cluster::Replicator::LinkStats link =
      router.replicator()->StatsFor("shard-0");
  out.primary_last_seq = static_cast<int64_t>(link.primary_last_seq);
  out.follower_applied_seq = static_cast<int64_t>(link.follower_applied_seq);
  out.ship_lag = static_cast<int64_t>(link.ship_lag);
  out.segments_shipped = static_cast<int64_t>(link.segments_shipped);
  out.appends_last_seq = static_cast<int64_t>(link.appends_last_seq);
  out.appends_staged_seq = static_cast<int64_t>(link.appends_staged_seq);

  // Kill -9 the only primary and measure service restoration.
  if (!router.KillShardPrimary("shard-0", SIGKILL).ok()) Die("kill failed");
  Json forecast_params = Json::Object();
  forecast_params.Set("dataset", dataset);
  forecast_params.Set("method", "theta");
  forecast_params.Set("horizon", int64_t{4});

  Stopwatch watch;
  bool degraded_seen = false;
  bool restored = false;
  for (int i = 0; i < 24000 && !restored; ++i) {
    Json resp = CallRouter(router, 100 + i, "forecast", forecast_params);
    if (resp.GetBool("ok", false)) {
      if (resp.Get("result").GetBool("degraded", false)) {
        if (!degraded_seen) {
          degraded_seen = true;
          out.time_to_degraded_read_ms = watch.ElapsedMillis();
        }
      } else {
        restored = true;
        out.failover_ms = watch.ElapsedMillis();
      }
    }
    if (!restored) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (!restored) Die("failover did not complete within the poll budget");

  // The promoted store must continue the exact acked offset chain.
  Json resume = AppendParams(dataset, 2, 8.0);
  resume.Set("start", acked_length);
  Json resumed = CallRouter(router, 50000, "append", std::move(resume));
  out.acked_append_preserved =
      resumed.GetBool("ok", false) &&
      resumed.Get("result").GetInt("length", 0) == acked_length + 2;
  if (!out.acked_append_preserved) {
    Die("acked append lost across failover: " + resumed.Dump());
  }

  router.Stop();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  constexpr int kClients = 4;
  constexpr int kBursts = 20;
  constexpr int kBurstSize = 16;

  // The baseline system mirrors the workers' "small" preset exactly, so the
  // single-process number differs only by the routing hop.
  auto preset = cluster::PresetOptions("small");
  if (!preset.ok()) Die(preset.status().ToString());
  auto system = core::EasyTime::Create(*preset);
  if (!system.ok()) Die(system.status().ToString());
  const std::vector<std::string> datasets = (*system)->repository()->names();

  double single_rps = MeasureSingleProcessRps(system->get(), datasets,
                                              kClients, kBursts, kBurstSize);
  const std::vector<size_t> shard_counts = {1, 2, 4};
  std::vector<double> shard_rps;
  for (size_t shards : shard_counts) {
    shard_rps.push_back(
        MeasureRouterRps(shards, datasets, kClients, kBursts, kBurstSize));
  }

  FailoverNumbers failover = MeasureFailover(datasets[0]);

  const int64_t hc =
      static_cast<int64_t>(std::thread::hardware_concurrency());

  Json out = Json::Object();
  out.Set("hardware_concurrency", hc);

  Json sharding = Json::Object();
  sharding.Set("threads", static_cast<int64_t>(kClients));  // client threads
  sharding.Set("requests_per_config",
               static_cast<int64_t>(kClients * kBursts * kBurstSize));
  sharding.Set("single_process_req_per_sec", single_rps);
  for (size_t i = 0; i < shard_counts.size(); ++i) {
    Json entry = Json::Object();
    entry.Set("req_per_sec", shard_rps[i]);
    entry.Set("vs_single_process",
              single_rps > 0.0 ? shard_rps[i] / single_rps : 0.0);
    sharding.Set("shards_" + std::to_string(shard_counts[i]),
                 std::move(entry));
  }
  out.Set("sharding", std::move(sharding));

  Json fo = Json::Object();
  fo.Set("threads", static_cast<int64_t>(1));
  fo.Set("time_to_degraded_read_ms", failover.time_to_degraded_read_ms);
  fo.Set("failover_ms", failover.failover_ms);
  fo.Set("acked_append_preserved", failover.acked_append_preserved);
  out.Set("failover", std::move(fo));

  Json rep = Json::Object();
  rep.Set("threads", static_cast<int64_t>(1));
  rep.Set("ship_pass_ms", failover.ship_pass_ms);
  rep.Set("primary_last_seq", failover.primary_last_seq);
  rep.Set("follower_applied_seq", failover.follower_applied_seq);
  rep.Set("ship_lag", failover.ship_lag);
  rep.Set("segments_shipped", failover.segments_shipped);
  rep.Set("appends_last_seq", failover.appends_last_seq);
  rep.Set("appends_staged_seq", failover.appends_staged_seq);
  out.Set("replication", std::move(rep));

  std::string payload = out.Dump(2);
  std::printf("%s\n", payload.c_str());
  if (argc > 1) {
    std::FILE* f = std::fopen(argv[1], "w");
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", argv[1]);
      return 1;
    }
    std::fputs(payload.c_str(), f);
    std::fputs("\n", f);
    std::fclose(f);
  }
  return 0;
}
