#include "serve/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "serve/request.h"

namespace easytime::serve {
namespace {

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

class ServeStressTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { system_ = MakeSystem(); }
  static void TearDownTestSuite() {
    delete system_;
    system_ = nullptr;
  }
  static core::EasyTime* system_;
};

core::EasyTime* ServeStressTest::system_ = nullptr;

// The acceptance scenario: >= 8 concurrent in-process clients firing mixed
// requests. Every client must get a correct response for every request —
// nothing wrong, nothing dropped, no deadlock.
TEST_F(ServeStressTest, EightConcurrentClientsZeroWrongOrDroppedResponses) {
  ASSERT_NE(system_, nullptr);
  ForecastServer::Options opt;
  opt.fast_lane_workers = 4;
  opt.fast_lane_capacity = 1024;  // admission control is tested elsewhere
  ForecastServer server(system_, opt);
  server.Start();

  const std::vector<std::string> datasets = system_->repository()->names();
  const std::vector<std::string> methods = {"naive", "drift", "ses", "theta"};
  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 25;

  std::atomic<int> correct{0};
  std::atomic<int> wrong{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c]() {
      for (int r = 0; r < kRequestsPerClient; ++r) {
        const int64_t id = c * 1000 + r;
        Json req = Json::Object();
        req.Set("id", id);
        Json params = Json::Object();
        const int kind = r % 4;
        int64_t horizon = 0;
        if (kind == 3) {
          req.Set("endpoint", "recommend");
          params.Set("dataset", datasets[r % datasets.size()]);
          params.Set("k", static_cast<int64_t>(2));
        } else {
          req.Set("endpoint", "forecast");
          // A mix of shared requests (cache hits) and per-client ones
          // (distinct computations running side by side).
          params.Set("dataset", datasets[(kind == 0 ? r : c + r) %
                                         datasets.size()]);
          params.Set("method", methods[r % methods.size()]);
          horizon = 3 + (r % 5);
          params.Set("horizon", horizon);
        }
        req.Set("params", std::move(params));

        auto resp = Json::Parse(server.HandleLine(req.Dump()));
        bool ok = resp.ok() && resp->GetBool("ok", false) &&
                  resp->GetInt("id", -1) == id;
        if (ok && kind != 3) {
          ok = resp->Get("result").Get("values").size() ==
               static_cast<size_t>(horizon);
        }
        if (ok && kind == 3) {
          ok = resp->Get("result").Get("recommendations").size() == 2u;
        }
        if (ok) {
          correct.fetch_add(1);
        } else {
          wrong.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();

  EXPECT_EQ(correct.load(), kClients * kRequestsPerClient);
  EXPECT_EQ(wrong.load(), 0);

  Json stats = server.StatsJson();
  int64_t served = stats.Get("endpoints").Get("forecast").GetInt("requests", 0) +
                   stats.Get("endpoints").Get("recommend").GetInt("requests", 0);
  EXPECT_EQ(served, kClients * kRequestsPerClient);
  server.Stop();
}

// Identical concurrent requests: with the cache off every one is computed
// on its own, and each client still receives its own id and the same,
// correct payload.
TEST_F(ServeStressTest, IdenticalConcurrentRequestsEachGetTheirOwnAnswer) {
  ASSERT_NE(system_, nullptr);
  ForecastServer::Options opt;
  opt.fast_lane_workers = 2;
  opt.cache_capacity = 0;  // no request is answered from another's result
  ForecastServer server(system_, opt);
  server.Start();

  const std::string dataset = system_->repository()->names()[0];
  Json params = Json::Object();
  params.Set("dataset", dataset);
  params.Set("method", "seasonal_naive");
  params.Set("horizon", static_cast<int64_t>(6));
  auto reference = server.Call("forecast", params);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  const std::string expected = reference->Get("values").Dump();
  ASSERT_EQ(reference->Get("values").size(), 6u);

  constexpr int kClients = 12;
  std::vector<std::thread> clients;
  std::atomic<int> good{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c]() {
      Json req = Json::Object();
      req.Set("id", static_cast<int64_t>(c));
      req.Set("endpoint", "forecast");
      req.Set("params", params);
      auto resp = Json::Parse(server.HandleLine(req.Dump()));
      if (resp.ok() && resp->GetBool("ok", false) &&
          resp->GetInt("id", -1) == c && !resp->GetBool("cached", true) &&
          resp->Get("result").Get("values").Dump() == expected) {
        good.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(good.load(), kClients);

  Json stats = server.StatsJson();
  EXPECT_EQ(stats.Get("endpoints").Get("forecast").GetInt("ok", 0),
            kClients + 1);
  EXPECT_EQ(stats.Get("admission").GetInt("total_pending", -1), 0);
  server.Stop();
}

// Graceful shutdown drain: Stop() while slow requests are queued must
// answer every admitted request — the contract is "reject at the door or
// serve to completion", never hang or drop.
TEST_F(ServeStressTest, StopDrainsInFlightAndQueuedRequests) {
  ASSERT_NE(system_, nullptr);
  ForecastServer::Options opt;
  opt.fast_lane_workers = 2;
  opt.fast_lane_capacity = 64;
  opt.cache_capacity = 0;
  auto server = std::make_unique<ForecastServer>(system_, opt);
  server->Start();

  const std::string dataset = system_->repository()->names()[0];
  constexpr int kClients = 10;
  std::atomic<int> answered{0};
  std::atomic<int> rejected{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&]() {
      Json params = Json::Object();
      params.Set("dataset", dataset);
      params.Set("method", "naive");
      params.Set("horizon", static_cast<int64_t>(2));
      params.Set("sleep_ms", 100.0);
      auto r = server->Call("forecast", params);
      if (r.ok()) {
        answered.fetch_add(1);
      } else if (r.status().IsUnavailable()) {
        rejected.fetch_add(1);
      }
    });
  }
  // Let the requests reach the queue, then pull the plug mid-flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  server->Stop();
  for (auto& t : clients) t.join();

  // Every client got a definitive answer.
  EXPECT_EQ(answered.load() + rejected.load(), kClients);
  // And the drain actually served what it admitted (at least the two that
  // were on workers when Stop() hit).
  EXPECT_GE(answered.load(), 2);

  server.reset();  // double-stop via destructor must be safe
}

// Stop() racing a stream of short forecasts: every call is answered ok (it
// was admitted and drained) or Unavailable (it met a stopping server). None
// hangs, and every admission slot taken is given back.
TEST_F(ServeStressTest, StopRacingShortForecastsAnswersOkOrUnavailable) {
  ASSERT_NE(system_, nullptr);
  const std::string dataset = system_->repository()->names()[0];
  Json params = Json::Object();
  params.Set("dataset", dataset);
  params.Set("method", "naive");
  params.Set("horizon", static_cast<int64_t>(2));

  for (int round = 0; round < 3; ++round) {
    ForecastServer::Options opt;
    opt.fast_lane_workers = 2;
    opt.cache_capacity = 0;  // every call takes a worker slot
    auto server = std::make_unique<ForecastServer>(system_, opt);
    server->Start();

    constexpr int kClients = 6;
    std::atomic<bool> stopped{false};
    std::atomic<int> ok{0};
    std::atomic<int> unavailable{0};
    std::atomic<int> other{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&]() {
        for (;;) {
          // Read before the call: a call that starts after Stop() returned
          // must be refused.
          const bool after_stop = stopped.load();
          auto r = server->Call("forecast", params);
          if (r.ok() && !after_stop) {
            ok.fetch_add(1);
          } else if (!r.ok() && r.status().IsUnavailable()) {
            unavailable.fetch_add(1);
          } else {
            other.fetch_add(1);
          }
          if (after_stop) return;
        }
      });
    }
    // Stop only once traffic is flowing, so the drain races live calls.
    while (ok.load() < 2 * kClients && unavailable.load() == 0 &&
           other.load() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5 * round));
    server->Stop();
    stopped.store(true);
    for (auto& t : clients) t.join();

    EXPECT_EQ(other.load(), 0) << "round " << round;
    EXPECT_GE(unavailable.load(), kClients) << "round " << round;
    EXPECT_EQ(server->StatsJson().Get("admission").GetInt("total_pending", -1),
              0)
        << "round " << round;
  }
}

// Readers keep getting consistent answers while an evaluation job commits
// new knowledge in the background.
TEST_F(ServeStressTest, ReadsStayConsistentDuringBackgroundEvaluation) {
  ASSERT_NE(system_, nullptr);
  ForecastServer server(system_);
  server.Start();

  auto cfg = Json::Parse(R"({
    "methods": ["window_average"],
    "evaluation": {"strategy": "fixed", "horizon": 6, "metrics": ["mae"]}
  })");
  ASSERT_TRUE(cfg.ok());
  auto submitted = server.Call("evaluate", *cfg);
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  int64_t job = submitted->GetInt("job", -1);

  const std::string dataset = system_->repository()->names()[0];
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int c = 0; c < 4; ++c) {
    readers.emplace_back([&]() {
      while (!done.load()) {
        Json params = Json::Object();
        params.Set("dataset", dataset);
        params.Set("method", "theta");
        params.Set("horizon", static_cast<int64_t>(4));
        auto r = server.Call("forecast", params);
        if (!r.ok() || r->Get("values").size() != 4u) failures.fetch_add(1);
      }
    });
  }

  Json poll = Json::Object();
  poll.Set("job", job);
  std::string state = "queued";
  for (int i = 0; i < 600 && (state == "queued" || state == "running"); ++i) {
    auto s = server.Call("job_status", poll);
    ASSERT_TRUE(s.ok());
    state = s->GetString("state", "");
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  done.store(true);
  for (auto& t : readers) t.join();

  EXPECT_EQ(state, "done");
  EXPECT_EQ(failures.load(), 0);
  server.Stop();
}

}  // namespace
}  // namespace easytime::serve
