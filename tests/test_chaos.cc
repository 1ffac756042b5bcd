// Chaos tests: the serving stack under injected faults. Eight concurrent
// clients hammer a server whose fault points fire at ~10%; the contract is
// that every single request still reaches a terminal state — a correct
// result or a well-formed error envelope with the right id — with nothing
// wrong, dropped, or deadlocked. A separate scenario simulates a killed
// evaluation job and asserts the checkpoint/resume path skips completed
// pairs on restart, and another fails one WAL fsync under concurrent
// appends: the store refuses every later append until it is reopened.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/overload.h"
#include "serve/client.h"
#include "serve/event_loop.h"
#include "serve/job_manager.h"
#include "serve/request.h"
#include "serve/server.h"

namespace easytime::serve {
namespace {

using namespace std::chrono_literals;

core::EasyTime::Options MakeOptions() {
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
  return opt;
}

core::EasyTime* MakeSystem() {
  auto system = core::EasyTime::Create(MakeOptions());
  EXPECT_TRUE(system.ok()) << system.status().ToString();
  return system.ok() ? system->release() : nullptr;
}

class ChaosTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { system_ = MakeSystem(); }
  static void TearDownTestSuite() {
    delete system_;
    system_ = nullptr;
  }
  void SetUp() override {
    ASSERT_NE(system_, nullptr);
    FaultRegistry::Global().DisarmAll();
    FaultRegistry::Global().Reseed(2026);
  }
  void TearDown() override { FaultRegistry::Global().DisarmAll(); }
  static core::EasyTime* system_;
};

core::EasyTime* ChaosTest::system_ = nullptr;

// The acceptance scenario: 8 concurrent clients against a server whose
// dispatch path fails Unavailable ~10% of the time and whose execute path
// stalls ~10% of the time. Every request must reach a terminal state: a
// correct result, or an error envelope carrying the request's own id.
TEST_F(ChaosTest, EveryRequestReachesTerminalStatusUnderFaults) {
  ASSERT_TRUE(FaultRegistry::Global()
                  .ArmFromSpec("serve.dispatch:unavailable:0.1,"
                               "serve.execute:delay:0.1:5")
                  .ok());

  ForecastServer::Options opt;
  opt.fast_lane_workers = 4;
  opt.fast_lane_capacity = 1024;
  opt.cache_capacity = 0;  // every request exercises the faulted path
  ForecastServer server(system_, opt);
  server.Start();

  const std::vector<std::string> datasets = system_->repository()->names();
  const std::vector<std::string> methods = {"naive", "drift", "ses", "theta"};
  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 25;

  std::atomic<int> ok_responses{0};
  std::atomic<int> error_responses{0};
  std::atomic<int> wrong{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c]() {
      for (int r = 0; r < kRequestsPerClient; ++r) {
        const int64_t id = c * 1000 + r;
        Json req = Json::Object();
        req.Set("id", id);
        req.Set("endpoint", "forecast");
        Json params = Json::Object();
        params.Set("dataset", datasets[(c + r) % datasets.size()]);
        params.Set("method", methods[r % methods.size()]);
        params.Set("horizon", static_cast<int64_t>(4));
        req.Set("params", std::move(params));

        std::string line = server.HandleLine(req.Dump());
        auto resp = Json::Parse(line);
        if (!resp.ok() || resp->GetInt("id", -1) != id) {
          wrong.fetch_add(1);
          continue;
        }
        if (resp->GetBool("ok", false)) {
          // A correct result: the requested number of finite values.
          if (resp->Get("result").Get("values").size() == 4) {
            ok_responses.fetch_add(1);
          } else {
            wrong.fetch_add(1);
          }
        } else if (resp->Has("error") &&
                   !resp->Get("error").GetString("code", "").empty()) {
          error_responses.fetch_add(1);
        } else {
          wrong.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  server.Stop();

  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(ok_responses.load() + error_responses.load(),
            kClients * kRequestsPerClient);
  // With a 10% dispatch fault over 200 requests, both outcomes must occur.
  EXPECT_GT(ok_responses.load(), 0);
  EXPECT_GT(error_responses.load(), 0) << "faults were armed but never fired";
}

// Knowledge chaos: the same terminal-status contract for the SQL/QA
// endpoints, with faults armed on the endpoint gates (serve.ask, serve.sql)
// AND on the SELECT core both funnel through (sql.execute). Every request
// still gets a correct result or a well-formed error envelope with its own
// id — a knowledge-path fault must never corrupt a response or take down a
// neighbouring request.
TEST_F(ChaosTest, SqlAndAskRequestsStayTerminalUnderKnowledgeFaults) {
  ASSERT_TRUE(FaultRegistry::Global()
                  .ArmFromSpec("serve.ask:unavailable:0.2,"
                               "serve.sql:unavailable:0.2,"
                               "sql.execute:error:0.2,"
                               "serve.execute:delay:0.1:5")
                  .ok());

  ForecastServer::Options opt;
  opt.fast_lane_workers = 4;
  opt.cache_capacity = 0;  // every request exercises the faulted path
  ForecastServer server(system_, opt);
  server.Start();

  constexpr int kClients = 6;
  constexpr int kRequestsPerClient = 30;
  std::atomic<int> ok_responses{0};
  std::atomic<int> error_responses{0};
  std::atomic<int> wrong{0};

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c]() {
      for (int r = 0; r < kRequestsPerClient; ++r) {
        const int64_t id = c * 1000 + r;
        Json req = Json::Object();
        req.Set("id", id);
        Json params = Json::Object();
        if (r % 2 == 0) {
          req.Set("endpoint", "sql");
          params.Set("query", "SELECT method FROM results LIMIT 1");
        } else {
          req.Set("endpoint", "ask");
          params.Set("question", "What is the average mae of theta?");
        }
        req.Set("params", std::move(params));

        std::string line = server.HandleLine(req.Dump());
        auto resp = Json::Parse(line);
        if (!resp.ok() || resp->GetInt("id", -1) != id) {
          wrong.fetch_add(1);
          continue;
        }
        if (resp->GetBool("ok", false)) {
          ok_responses.fetch_add(1);
        } else if (resp->Has("error") &&
                   !resp->Get("error").GetString("code", "").empty()) {
          error_responses.fetch_add(1);
        } else {
          wrong.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  server.Stop();

  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(ok_responses.load() + error_responses.load(),
            kClients * kRequestsPerClient);
  // ~48% of requests hit at least one armed gate over 180 trials: both
  // outcomes are effectively certain.
  EXPECT_GT(ok_responses.load(), 0);
  EXPECT_GT(error_responses.load(), 0) << "faults were armed but never fired";
  EXPECT_GT(FaultRegistry::Global().PointStats("sql.execute").triggers, 0u)
      << "the knowledge query core was never exercised";
}

// TCP chaos: connections are torn down at random by serve.tcp.* faults; the
// retrying TcpClient must ride every request through to a correct response.
TEST_F(ChaosTest, TcpClientsRetryThroughConnectionFaults) {
  ASSERT_TRUE(
      FaultRegistry::Global().ArmFromSpec("serve.tcp.read:error:0.1").ok());

  ForecastServer::Options opt;
  opt.fast_lane_workers = 4;
  opt.fast_lane_capacity = 1024;
  ForecastServer server(system_, opt);
  server.Start();
  EventLoopServer tcp(&server, EventLoopServer::Options());
  ASSERT_TRUE(tcp.Start().ok());

  const std::vector<std::string> datasets = system_->repository()->names();
  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 15;

  std::atomic<int> correct{0};
  std::atomic<int> failed{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c]() {
      RetryPolicy retry;
      retry.max_attempts = 8;  // 0.1^8: retries make loss astronomically rare
      retry.base_delay_ms = 1.0;
      retry.seed = 100 + static_cast<uint64_t>(c);
      TcpClient client(tcp.port(), retry);
      for (int r = 0; r < kRequestsPerClient; ++r) {
        Json params = Json::Object();
        params.Set("dataset", datasets[(c + r) % datasets.size()]);
        params.Set("method", "naive");
        params.Set("horizon", static_cast<int64_t>(3));
        auto result = client.Call("forecast", params);
        if (result.ok() && result->Get("values").size() == 3) {
          correct.fetch_add(1);
        } else {
          failed.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  tcp.Stop();
  server.Stop();

  EXPECT_EQ(failed.load(), 0);
  EXPECT_EQ(correct.load(), kClients * kRequestsPerClient);
  // The fault genuinely dropped connections; retries absorbed all of them.
  EXPECT_GT(FaultRegistry::Global().PointStats("serve.tcp.read").triggers, 0u);
}

// SIGKILL simulation: an evaluation job is cancelled mid-run and its manager
// destroyed — the moral equivalent of the process dying. A fresh manager
// pointed at the same checkpoint directory and resubmitted the same job_key
// must splice in the completed pairs instead of re-evaluating them.
TEST_F(ChaosTest, KilledJobResumesFromCheckpointWithoutReevaluating) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) /
       ("easytime_chaos_ckpt_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(std::filesystem::create_directories(dir));

  auto config = Json::Parse(R"({
    "methods": ["naive", "drift", "ses", "theta"],
    "evaluation": {"strategy": "fixed", "horizon": 8, "metrics": ["mae"]},
    "num_threads": 1,
    "job_key": "chaos-resume"
  })");
  ASSERT_TRUE(config.ok());

  JobManager::Options jm_opt;
  jm_opt.checkpoint_dir = dir;
  std::string ckpt_path;

  // Phase 1: run until a few pairs are checkpointed, then cancel and destroy
  // the manager. A delay fault slows each pair so the cancel lands mid-run.
  {
    FaultSpec slow;
    slow.kind = FaultKind::kDelay;
    slow.delay_ms = 30.0;
    ASSERT_TRUE(FaultRegistry::Global().Arm("pipeline.pair", slow).ok());

    JobManager manager(system_, jm_opt);
    ckpt_path = manager.CheckpointPath("chaos-resume");
    ASSERT_FALSE(ckpt_path.empty());
    manager.Start();
    auto id = manager.Submit(*config);
    ASSERT_TRUE(id.ok()) << id.status().ToString();

    // Wait until at least 2 pairs completed, then pull the plug.
    for (int i = 0; i < 2000; ++i) {
      auto s = manager.StatusJson(*id);
      ASSERT_TRUE(s.ok());
      if (s->GetInt("done", 0) >= 2) break;
      std::this_thread::sleep_for(2ms);
    }
    auto cancelled = manager.Cancel(*id);
    ASSERT_TRUE(cancelled.ok());
    // Manager destructor == Shutdown: the worker stops at the cancellation
    // point, mirroring a killed process whose checkpoint survives on disk.
  }
  FaultRegistry::Global().DisarmAll();

  ASSERT_TRUE(std::filesystem::exists(ckpt_path))
      << "checkpoint must survive a cancelled (killed) job";

  // Phase 2: a fresh manager on the same directory resumes the same job_key.
  {
    JobManager manager(system_, jm_opt);
    manager.Start();
    auto id = manager.Submit(*config);
    ASSERT_TRUE(id.ok()) << id.status().ToString();

    std::string state = "queued";
    Json status;
    for (int i = 0; i < 4000 && (state == "queued" || state == "running");
         ++i) {
      auto s = manager.StatusJson(*id);
      ASSERT_TRUE(s.ok());
      status = *s;
      state = status.GetString("state", "");
      std::this_thread::sleep_for(2ms);
    }
    ASSERT_EQ(state, "done") << status.Dump();

    const Json& summary = status.Get("result");
    EXPECT_GT(summary.GetInt("resumed", 0), 0)
        << "restart must splice checkpointed pairs, not redo them";
    EXPECT_EQ(summary.GetInt("ok", -1), summary.GetInt("records", -2))
        << "resumed run must still produce a complete, all-ok report";
    EXPECT_GT(manager.stats().resumed_records, 0u);

    // A completed job retires its checkpoint.
    EXPECT_FALSE(std::filesystem::exists(ckpt_path));
  }
  std::filesystem::remove_all(dir);
}

// The persistence acceptance scenario (DESIGN.md §9): a server restarted
// against a populated knowledge store must answer recommend/sql identically
// to the pre-crash server — without re-running the seeding evaluation — and
// results appended after the restart must survive the next restart via the
// WAL tail.
TEST_F(ChaosTest, RestartedServerAnswersIdenticallyFromThePersistedStore) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "easytime_chaos_store")
          .string();
  std::filesystem::remove_all(dir);

  core::EasyTime::Options opt = MakeOptions();
  opt.store_dir = dir;

  const std::string sql_query =
      "SELECT dataset, method, value FROM results "
      "WHERE metric = 'mae' ORDER BY dataset, method";
  std::vector<std::string> dataset_names;
  std::map<std::string, std::string> recommend_before;
  std::string sql_before;
  size_t results_before = 0;

  // Life 1: cold start seeds the knowledge base and checkpoints it.
  {
    auto sys = core::EasyTime::Create(opt);
    ASSERT_TRUE(sys.ok()) << sys.status().ToString();
    ASSERT_FALSE((*sys)->restored_from_store());
    results_before = (*sys)->knowledge().NumResults();
    ASSERT_GT(results_before, 0u);
    for (const auto& d : (*sys)->knowledge().datasets()) {
      dataset_names.push_back(d.name);
    }

    ForecastServer server(sys->get());
    server.Start();
    for (const auto& name : dataset_names) {
      Json params = Json::Object();
      params.Set("dataset", name);
      auto r = server.Call("recommend", params);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      recommend_before[name] = r->Dump();
    }
    Json params = Json::Object();
    params.Set("query", sql_query);
    auto r = server.Call("sql", params);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    // Compare the result rows, not the envelope: the response also carries
    // the query's wall-clock "seconds", which legitimately differs per run.
    sql_before = r->Get("rows").Dump() + r->GetString("answer", "");
    server.Stop();
  }

  // Life 2: the restart. Opens warm, answers must match bit for bit, the
  // warmed cache serves the first recommend round, and one extra evaluation
  // lands in the WAL tail.
  size_t results_after_extra = 0;
  {
    auto sys = core::EasyTime::Create(opt);
    ASSERT_TRUE(sys.ok()) << sys.status().ToString();
    ASSERT_TRUE((*sys)->restored_from_store())
        << "a populated store must skip the seeding evaluation";
    ASSERT_EQ((*sys)->knowledge().NumResults(), results_before);

    ForecastServer server(sys->get());
    server.Start();
    for (const auto& name : dataset_names) {
      Json params = Json::Object();
      params.Set("dataset", name);
      auto r = server.Call("recommend", params);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(r->Dump(), recommend_before[name])
          << "restarted recommend must match for " << name;
    }
    const Json stats = server.StatsJson();
    EXPECT_GE(stats.Get("endpoints").Get("recommend").GetInt("cache_hits", 0),
              static_cast<int64_t>(dataset_names.size()))
        << "warm start must serve the first recommend round from the cache";
    Json params = Json::Object();
    params.Set("query", sql_query);
    auto r = server.Call("sql", params);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->Get("rows").Dump() + r->GetString("answer", ""), sql_before)
        << "metric doubles must round-trip the store bit-exactly";
    server.Stop();

    auto config = Json::Parse(R"({
      "methods": ["drift"],
      "evaluation": {"strategy": "fixed", "horizon": 8, "metrics": ["mae"]},
      "num_threads": 1
    })");
    ASSERT_TRUE(config.ok());
    auto report = (*sys)->OneClickEvaluate(*config);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    results_after_extra = (*sys)->knowledge().NumResults();
    ASSERT_GT(results_after_extra, results_before);
  }

  // Life 3: the post-restart evaluation survived via the WAL tail.
  {
    auto sys = core::EasyTime::Create(opt);
    ASSERT_TRUE(sys.ok()) << sys.status().ToString();
    EXPECT_TRUE((*sys)->restored_from_store());
    EXPECT_EQ((*sys)->knowledge().NumResults(), results_after_extra)
        << "records appended after the snapshot must replay from the WAL";
  }
  std::filesystem::remove_all(dir);
}

// The store's one failure rule, end to end: a server with a store_dir takes
// concurrent appends while one WAL fsync fails. From then on every append is
// refused with IOError until the store is reopened, while forecasts keep
// answering from memory. A system reopened on the same directory holds every
// acknowledged append exactly once, in offset order, and takes appends again.
TEST_F(ChaosTest, FailedFsyncRefusesAppendsUntilReopen) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) /
       ("easytime_chaos_fsync_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  core::EasyTime::Options opt = MakeOptions();
  opt.store_dir = dir;

  // One appender per univariate dataset. Batch n of lane l holds
  // {l * 1e6 + 2n, l * 1e6 + 2n + 1}, so a lost, doubled or misplaced
  // batch shows up as a wrong value or length.
  struct Lane {
    std::string dataset;
    size_t base = 0;
    std::vector<std::vector<double>> acked;
    std::vector<double> first_refused;
    int refused = 0;
    std::string wrong;  ///< the first broken expectation, if any
  };
  std::vector<Lane> lanes;
  {
    auto sys = core::EasyTime::Create(opt);
    ASSERT_TRUE(sys.ok()) << sys.status().ToString();
    for (const auto& name : (*sys)->repository()->names()) {
      auto ds = (*sys)->repository()->Get(name);
      if (ds.ok() && (*ds)->num_channels() == 1 && lanes.size() < 4) {
        Lane lane;
        lane.dataset = name;
        lane.base = (*ds)->length();
        lanes.push_back(std::move(lane));
      }
    }
    ASSERT_GE(lanes.size(), 2u);

    ForecastServer server(sys->get());
    server.Start();
    std::atomic<size_t> lane_acks[4] = {};
    std::vector<std::thread> appenders;
    for (size_t l = 0; l < lanes.size(); ++l) {
      appenders.emplace_back([&, l]() {
        Lane& lane = lanes[l];
        for (int n = 0; n < 20000 && lane.refused < 3; ++n) {
          const double v = static_cast<double>(l) * 1e6 + 2.0 * n;
          Json params = Json::Object();
          params.Set("dataset", lane.dataset);
          Json values = Json::Array();
          values.Append(v);
          values.Append(v + 1.0);
          params.Set("values", std::move(values));
          auto r = server.Call("append", params);
          if (r.ok()) {
            if (lane.refused > 0) {
              lane.wrong = "an append was acked after a refusal";
              return;
            }
            lane.acked.push_back({v, v + 1.0});
            lane_acks[l].fetch_add(1);
          } else if (r.status().code() != StatusCode::kIOError) {
            lane.wrong = "refused with " + r.status().ToString();
            return;
          } else if (lane.refused++ == 0) {
            lane.first_refused = {v, v + 1.0};
          }
        }
        if (lane.refused == 0) lane.wrong = "no append was ever refused";
      });
    }
    // Let every lane get some appends acked, then fail one fsync.
    const auto deadline = std::chrono::steady_clock::now() + 30s;
    for (size_t l = 0; l < lanes.size(); ++l) {
      while (lane_acks[l].load() < 3 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(1ms);
      }
    }
    FaultSpec fail;
    fail.kind = FaultKind::kError;
    fail.code = StatusCode::kIOError;
    fail.max_triggers = 1;
    EXPECT_TRUE(FaultRegistry::Global().Arm("store.fsync", fail).ok());
    for (auto& t : appenders) t.join();
    EXPECT_EQ(FaultRegistry::Global().PointStats("store.fsync").triggers, 1u);
    FaultRegistry::Global().DisarmAll();

    for (const Lane& lane : lanes) {
      EXPECT_EQ(lane.wrong, "") << lane.dataset;
      EXPECT_GE(lane.acked.size(), 3u) << lane.dataset;
      EXPECT_EQ(lane.refused, 3) << lane.dataset;
      // Reads never touch the store: forecasts still answer.
      Json params = Json::Object();
      params.Set("dataset", lane.dataset);
      params.Set("method", "naive");
      params.Set("horizon", static_cast<int64_t>(4));
      auto r = server.Call("forecast", params);
      ASSERT_TRUE(r.ok()) << lane.dataset << ": " << r.status().ToString();
      EXPECT_EQ(r->Get("values").size(), 4u);
    }
    server.Stop();
  }

  auto sys = core::EasyTime::Create(opt);
  ASSERT_TRUE(sys.ok()) << sys.status().ToString();
  for (const Lane& lane : lanes) {
    SCOPED_TRACE(lane.dataset);
    auto snap = (*sys)->SeriesSnapshot(lane.dataset);
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    const std::vector<double>& values = snap->values();
    const size_t acked_len = lane.base + 2 * lane.acked.size();
    ASSERT_GE(values.size(), acked_len)
        << "an acknowledged append was lost";
    for (size_t k = 0; k < lane.acked.size(); ++k) {
      ASSERT_EQ(values[lane.base + 2 * k], lane.acked[k][0]) << "batch " << k;
      ASSERT_EQ(values[lane.base + 2 * k + 1], lane.acked[k][1]);
    }
    // Refusals after the failure come before any write and never land. The
    // lane's first refused batch may already have been written when the
    // fsync failed: a failed fsync does not say the bytes are missing, so
    // recovery may replay it. Nothing refused after it may follow.
    if (values.size() > acked_len) {
      ASSERT_EQ(values.size(), acked_len + 2)
          << "a batch refused before its write was recovered";
      EXPECT_EQ(values[acked_len], lane.first_refused[0]);
      EXPECT_EQ(values[acked_len + 1], lane.first_refused[1]);
    }
    auto again = (*sys)->AppendObservations(lane.dataset, {{1.0, 2.0}});
    EXPECT_TRUE(again.ok()) << again.status().ToString();
  }
  sys->reset();
  std::filesystem::remove_all(dir);
}

// QoS chaos: injected faults, tight per-request deadlines, and a 4x
// admission overload all at once. The terminal-status contract still holds
// for every request, heavy fits under a 50ms budget never sneak through as
// successes, and the server's QoS accounting stays coherent.
TEST_F(ChaosTest, QosOverloadDeadlinesAndFaultsStayTerminal) {
  ASSERT_TRUE(FaultRegistry::Global()
                  .ArmFromSpec("serve.dispatch:unavailable:0.05,"
                               "serve.execute:delay:0.1:5")
                  .ok());

  ForecastServer::Options opt;
  opt.fast_lane_workers = 2;
  opt.fast_lane_capacity = 8;  // 8 clients oversubscribe this heavily
  opt.cache_capacity = 0;
  ForecastServer server(system_, opt);
  server.Start();
  const std::string dataset = system_->repository()->names()[0];

  // A series long enough that a 400-tree gbdt fit cannot finish in 50ms.
  Json heavy_values = Json::Array();
  {
    double level = 100.0;
    for (int i = 0; i < 4000; ++i) {
      level += ((i * 2654435761u) % 1000) / 1000.0 - 0.5;
      heavy_values.Append(level);
    }
  }

  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 12;
  std::atomic<int> ok_responses{0};
  std::atomic<int> error_responses{0};
  std::atomic<int> heavy_ok{0};
  std::atomic<int> wrong{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c]() {
      for (int r = 0; r < kRequestsPerClient; ++r) {
        const int64_t id = c * 1000 + r;
        Json req = Json::Object();
        req.Set("id", id);
        Json params = Json::Object();
        const bool heavy = r % 4 == 3;
        switch (r % 4) {
          case 0:  // plain forecast, no deadline
            req.Set("endpoint", "forecast");
            params.Set("dataset", dataset);
            params.Set("method", "naive");
            params.Set("horizon", static_cast<int64_t>(4));
            break;
          case 1: {  // slow ask: drives the overload + brownout
            req.Set("endpoint", "ask");
            params.Set("question", "What is the average mae of theta?");
            params.Set("sleep_ms", 40.0);
            break;
          }
          case 2:  // tight queue deadline behind the ask backlog
            req.Set("endpoint", "forecast");
            params.Set("dataset", dataset);
            params.Set("method", "theta");
            params.Set("horizon", static_cast<int64_t>(4));
            params.Set("deadline_ms", 30.0);
            break;
          default: {  // heavy fit under a 50ms budget: must abort mid-fit
            req.Set("endpoint", "forecast");
            params.Set("values", heavy_values);
            Json cfg = Json::Object();
            cfg.Set("num_trees", static_cast<int64_t>(400));
            cfg.Set("max_depth", static_cast<int64_t>(6));
            params.Set("config", std::move(cfg));
            params.Set("method", "gbdt");
            params.Set("horizon", static_cast<int64_t>(4));
            params.Set("deadline_ms", 50.0);
            break;
          }
        }
        req.Set("params", std::move(params));

        std::string line = server.HandleLine(req.Dump());
        auto resp = Json::Parse(line);
        if (!resp.ok() || resp->GetInt("id", -1) != id) {
          wrong.fetch_add(1);
          continue;
        }
        if (resp->GetBool("ok", false)) {
          ok_responses.fetch_add(1);
          if (heavy) heavy_ok.fetch_add(1);
        } else if (resp->Has("error") &&
                   !resp->Get("error").GetString("code", "").empty()) {
          error_responses.fetch_add(1);
        } else {
          wrong.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();

  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(ok_responses.load() + error_responses.load(),
            kClients * kRequestsPerClient);
  EXPECT_GT(ok_responses.load(), 0);
  EXPECT_GT(error_responses.load(), 0)
      << "deadlines and overload must produce some errors";
  EXPECT_EQ(heavy_ok.load(), 0)
      << "a 50ms-budget gbdt fit on 4000 points must never succeed";

  Json stats = server.StatsJson();
  EXPECT_GE(stats.GetInt("deadline_exceeded", 0), 1);
  EXPECT_TRUE(stats.Has("admission"));
  server.Stop();
  EXPECT_FALSE(easytime::GlobalOverload().brownout())
      << "Stop() must clear the global brownout flag";
}

}  // namespace
}  // namespace easytime::serve
