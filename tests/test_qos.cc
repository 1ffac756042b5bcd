// Serving QoS tests: per-endpoint admission quotas (no cross-endpoint
// starvation under overload), cooperative mid-fit deadline aborts,
// bearer-token auth on the TCP listener, and the hardened environment
// knobs. DESIGN.md §12 documents the contracts these tests pin down.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "common/fault.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "methods/registry.h"
#include "serve/admission.h"
#include "serve/client.h"
#include "serve/event_loop.h"
#include "serve/request.h"
#include "serve/server.h"

namespace easytime::serve {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// DeadlineChecker: the amortized poll every fit loop relies on
// ---------------------------------------------------------------------------

TEST(QosDeadlineCheckerTest, InfiniteDeadlineNeverChecksTheClock) {
  easytime::DeadlineChecker checker(easytime::Deadline::Infinite(), 4);
  for (int i = 0; i < 10000; ++i) EXPECT_FALSE(checker.Expired());
}

TEST(QosDeadlineCheckerTest, StrideAmortizesAndExpiryIsSticky) {
  easytime::Deadline d = easytime::Deadline::AfterMillis(0.01);
  std::this_thread::sleep_for(5ms);  // the deadline is now in the past
  easytime::DeadlineChecker checker(d, 4);
  // The first stride-1 calls never touch the clock, so they report live
  // even though the deadline has passed.
  EXPECT_FALSE(checker.Expired());
  EXPECT_FALSE(checker.Expired());
  EXPECT_FALSE(checker.Expired());
  EXPECT_TRUE(checker.Expired()) << "4th call reads the clock";
  EXPECT_TRUE(checker.Expired()) << "expiry is sticky";
}

TEST(QosDeadlineCheckerTest, ForceCheckPrimesTheNextCall) {
  easytime::Deadline d = easytime::Deadline::AfterMillis(0.01);
  std::this_thread::sleep_for(5ms);
  easytime::DeadlineChecker checker(d, 1000);
  checker.ForceCheck();
  EXPECT_TRUE(checker.Expired()) << "ForceCheck bypasses the stride";
}

// ---------------------------------------------------------------------------
// AdmissionController: weighted quotas, borrowing, worker fairness
// ---------------------------------------------------------------------------

using Ticket = AdmissionController::Ticket;

TEST(QosAdmissionTest, ReservationsAdmitBorrowAndShed) {
  AdmissionController::Options opt;
  opt.queue_capacity = 4;
  opt.workers = 2;
  opt.weights = {{"a", 3.0}, {"b", 1.0}};
  AdmissionController ac(opt);
  std::vector<Ticket> held;
  auto admit = [&](const std::string& cls) {
    held.push_back(ac.TryAdmit(cls));
    return static_cast<bool>(held.back());
  };

  // a reserves floor(4 * 3/4) = 3 slots, b reserves 1.
  EXPECT_TRUE(admit("a"));
  EXPECT_TRUE(admit("a"));
  EXPECT_TRUE(admit("a"));   // fills a's reservation
  EXPECT_TRUE(admit("a"));   // borrows shared headroom (total 3 < 4)
  EXPECT_FALSE(admit("a"));  // at capacity with no reservation: shed
  EXPECT_EQ(ac.shed_total(), 1u);

  // b's reserved slot survives a's burst — the no-starvation property.
  EXPECT_TRUE(admit("b"));

  held.clear();  // every ticket gives its slot back
  EXPECT_TRUE(ac.TryAdmit("a")) << "released slots are reusable";
}

// Polls \p done (1 ms steps, at most 5 s); true once it holds.
bool WaitFor(const std::function<bool()>& done) {
  for (int i = 0; i < 5000 && !done(); ++i) std::this_thread::sleep_for(1ms);
  return done();
}

int64_t QueuedUnits(const AdmissionController& ac, const std::string& cls) {
  return ac.StatsJson().Get("classes").Get(cls).GetInt("queued_units", -1);
}

TEST(QosAdmissionTest, TicketGivesBackItsSlotsExactlyOnce) {
  // A ticket moved twice, holding a queue slot and a worker slot, releases
  // both once — when its last owner dies — and an empty ticket holds none.
  AdmissionController::Options opt;
  opt.queue_capacity = 4;
  opt.workers = 1;
  opt.weights = {{"a", 1.0}};
  AdmissionController ac(opt);
  auto pending = [&]() { return ac.StatsJson().GetInt("total_pending", -1); };
  auto running = [&]() { return ac.StatsJson().GetInt("total_running", -1); };

  Ticket first = ac.TryAdmit("a");
  ASSERT_TRUE(first.AcquireWorker());
  Ticket second(std::move(first));
  Ticket third;
  third = std::move(second);
  EXPECT_FALSE(first);
  EXPECT_FALSE(second);
  EXPECT_EQ(pending(), 1);
  EXPECT_EQ(running(), 1);
  first = Ticket();
  second = Ticket();
  EXPECT_EQ(pending(), 1) << "a moved-from ticket holds nothing";
  third = ac.TryAdmit("a");  // the old claim is given back on overwrite
  EXPECT_EQ(pending(), 1);
  EXPECT_EQ(running(), 0);
  third = Ticket();
  EXPECT_EQ(pending(), 0);
}

TEST(QosAdmissionTest, WorkerTieBreakRoundRobinsAcrossClasses) {
  // One worker, two equal classes: after each release the scheduler must
  // alternate rather than draining the alphabetically-first class.
  AdmissionController::Options opt;
  opt.queue_capacity = 16;
  opt.workers = 1;
  opt.weights = {{"a", 1.0}, {"b", 1.0}};
  AdmissionController ac(opt);

  std::mutex order_mu;
  std::vector<std::string> order;
  auto run = [&](const std::string& cls, const std::string& name) {
    Ticket ticket = ac.TryAdmit(cls);
    ASSERT_TRUE(ticket);
    ASSERT_TRUE(ticket.AcquireWorker());
    std::lock_guard<std::mutex> lock(order_mu);
    order.push_back(name);
  };  // the ticket gives the worker slot back here

  Ticket a1 = ac.TryAdmit("a");
  ASSERT_TRUE(a1.AcquireWorker());  // a1 takes the only slot
  order.push_back("a1");
  std::vector<std::thread> waiters;
  waiters.emplace_back(run, "a", "a2");
  ASSERT_TRUE(WaitFor([&]() { return QueuedUnits(ac, "a") == 1; }));
  waiters.emplace_back(run, "a", "a3");
  ASSERT_TRUE(WaitFor([&]() { return QueuedUnits(ac, "a") == 2; }));
  waiters.emplace_back(run, "b", "b1");
  ASSERT_TRUE(WaitFor([&]() { return QueuedUnits(ac, "b") == 1; }));

  a1 = Ticket();  // a1 done: the slot goes to the next waiter
  for (auto& t : waiters) t.join();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], "a1");
  EXPECT_EQ(order[1], "b1") << "b must not wait behind all of a's backlog";
}

TEST(QosAdmissionTest, DrainAllGrantsEveryWaiterAndWaitsForTheirRelease) {
  // One worker held by this thread and three callers queued behind it.
  // DrainAll grants all three past the worker cap, returns only once every
  // granted slot is released, and refuses every later acquire.
  AdmissionController::Options opt;
  opt.queue_capacity = 8;
  opt.workers = 1;
  opt.weights = {{"a", 1.0}};
  AdmissionController ac(opt);

  Ticket mine = ac.TryAdmit("a");
  ASSERT_TRUE(mine.AcquireWorker());
  std::atomic<int> started{0};
  std::atomic<int> released{0};
  std::atomic<bool> gate{false};
  std::vector<std::thread> waiters;
  for (int i = 0; i < 3; ++i) {
    waiters.emplace_back([&]() {
      Ticket ticket = ac.TryAdmit("a");
      ASSERT_TRUE(ticket);
      ASSERT_TRUE(ticket.AcquireWorker());
      started.fetch_add(1);
      while (!gate.load()) std::this_thread::sleep_for(1ms);
      released.fetch_add(1);
    });
  }
  ASSERT_TRUE(WaitFor([&]() { return QueuedUnits(ac, "a") == 3; }));
  EXPECT_EQ(started.load(), 0) << "the single worker slot is taken";

  std::atomic<bool> drained{false};
  std::atomic<int> released_at_drain{-1};
  std::thread drainer([&]() {
    ac.DrainAll();
    released_at_drain.store(released.load());
    drained.store(true);
  });
  EXPECT_TRUE(WaitFor([&]() { return started.load() == 3; }))
      << "DrainAll grants every waiter regardless of the worker cap";
  std::this_thread::sleep_for(20ms);
  EXPECT_FALSE(drained.load()) << "granted slots are still held";

  gate.store(true);
  for (auto& t : waiters) t.join();
  std::this_thread::sleep_for(20ms);
  EXPECT_FALSE(drained.load()) << "this thread still holds its slot";
  mine = Ticket();
  drainer.join();
  EXPECT_EQ(released_at_drain.load(), 3);
  EXPECT_EQ(ac.StatsJson().GetInt("total_running", -1), 0);
  Ticket late = ac.TryAdmit("a");
  ASSERT_TRUE(late);
  EXPECT_FALSE(late.AcquireWorker()) << "acquires after DrainAll refuse";
}

TEST(QosAdmissionTest, StatsJsonExposesPerClassCounters) {
  AdmissionController::Options opt;
  opt.queue_capacity = 4;
  opt.workers = 2;
  opt.weights = {{"forecast", 4.0}, {"ask", 1.0}};
  AdmissionController ac(opt);
  Ticket ticket = ac.TryAdmit("forecast");
  ASSERT_TRUE(ticket);
  Json stats = ac.StatsJson();
  EXPECT_TRUE(stats.Has("classes"));
  EXPECT_TRUE(stats.Get("classes").Has("forecast"));
  EXPECT_EQ(stats.Get("classes").Get("forecast").GetInt("pending", -1), 1);
  EXPECT_GE(stats.Get("classes").Get("forecast").GetInt("reserved_slots", 0),
            1);
  EXPECT_EQ(stats.GetInt("queue_capacity", 0), 4);
}

// ---------------------------------------------------------------------------
// Mid-fit deadline aborts (direct method calls, no server)
// ---------------------------------------------------------------------------

std::vector<double> LongRandomWalk(size_t n) {
  std::vector<double> v;
  v.reserve(n);
  double level = 100.0;
  uint64_t state = 0x9e3779b97f4a7c15ULL;
  for (size_t i = 0; i < n; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    level += static_cast<double>(static_cast<int64_t>(state >> 33) % 1000) /
                 1000.0 -
             0.5;
    v.push_back(level);
  }
  return v;
}

TEST(QosDeadlineTest, GbdtFitAbortsMidBoostingWithinBudget) {
  // A configuration that would take seconds to fit in full: 400 trees of
  // depth 6 over ~6k points. A 50ms deadline must abort mid-boosting.
  Json cfg = Json::Object();
  cfg.Set("num_trees", static_cast<int64_t>(400));
  cfg.Set("max_depth", static_cast<int64_t>(6));
  auto f = methods::MethodRegistry::Global().Create("gbdt", cfg);
  ASSERT_TRUE(f.ok()) << f.status().ToString();

  methods::FitContext ctx;
  ctx.horizon = 12;
  ctx.deadline = easytime::Deadline::AfterMillis(50.0);
  easytime::Stopwatch watch;
  Status st = (*f)->Fit(LongRandomWalk(6000), ctx);
  const double ms = watch.ElapsedSeconds() * 1000.0;
  ASSERT_TRUE(st.IsDeadlineExceeded()) << st.ToString();
  // Generous bound (sanitizer builds are slow), but far below a full fit.
  EXPECT_LT(ms, 2000.0);
  EXPECT_FALSE((*f)->Forecast(12).ok()) << "partial fit state must be gone";
}

TEST(QosDeadlineTest, GruFitAbortsMidTrainingWithinBudget) {
  Json cfg = Json::Object();
  cfg.Set("epochs", static_cast<int64_t>(300));
  cfg.Set("hidden", static_cast<int64_t>(48));
  auto f = methods::MethodRegistry::Global().Create("gru", cfg);
  ASSERT_TRUE(f.ok()) << f.status().ToString();

  methods::FitContext ctx;
  ctx.horizon = 12;
  ctx.deadline = easytime::Deadline::AfterMillis(50.0);
  easytime::Stopwatch watch;
  Status st = (*f)->Fit(LongRandomWalk(3000), ctx);
  const double ms = watch.ElapsedSeconds() * 1000.0;
  ASSERT_TRUE(st.IsDeadlineExceeded()) << st.ToString();
  EXPECT_LT(ms, 2000.0);
  EXPECT_FALSE((*f)->Forecast(12).ok()) << "partial fit state must be gone";
}

TEST(QosDeadlineTest, ExpiredDeadlineFailsFastAcrossMethods) {
  // Every registered method must notice an already-expired deadline and
  // refuse to fit (entry check or first loop iteration) — no method may
  // silently run to completion on a dead request.
  const std::vector<double> series = LongRandomWalk(512);
  for (const char* name :
       {"ses", "holt", "theta", "ar", "arima", "knn", "gbdt", "lag_linear",
        "dlinear", "mlp", "gru", "tcn", "ets_auto"}) {
    auto f = methods::MethodRegistry::Global().Create(name, Json::Object());
    ASSERT_TRUE(f.ok()) << name;
    methods::FitContext ctx;
    ctx.horizon = 8;
    ctx.deadline = easytime::Deadline::AfterMillis(0.0001);
    std::this_thread::sleep_for(2ms);
    Status st = (*f)->Fit(series, ctx);
    EXPECT_TRUE(st.IsDeadlineExceeded())
        << name << " returned: " << st.ToString();
  }
}

// ---------------------------------------------------------------------------
// Server-level QoS: the acceptance scenarios
// ---------------------------------------------------------------------------

core::EasyTime::Options SmallSystemOptions() {
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

class QosServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto system = core::EasyTime::Create(SmallSystemOptions());
    ASSERT_TRUE(system.ok()) << system.status().ToString();
    system_ = system->release();
  }
  static void TearDownTestSuite() {
    delete system_;
    system_ = nullptr;
  }
  void SetUp() override {
    ASSERT_NE(system_, nullptr);
    FaultRegistry::Global().DisarmAll();
  }
  void TearDown() override {
    FaultRegistry::Global().DisarmAll();
  }
  static std::string FirstDataset() {
    return system_->repository()->names()[0];
  }
  static core::EasyTime* system_;
};

core::EasyTime* QosServerTest::system_ = nullptr;

TEST_F(QosServerTest, AskOverloadDoesNotStarveForecast) {
  // The headline scenario: a 4x oversubscribed burst of slow "ask" requests
  // while a "forecast" arrives mid-burst. The forecast must complete within
  // its guaranteed share — not wait for the whole ask backlog — and the
  // excess asks must shed Unavailable rather than queue without bound.
  ForecastServer::Options opt;
  opt.fast_lane_workers = 2;
  opt.fast_lane_capacity = 8;
  opt.cache_capacity = 0;
  ForecastServer server(system_, opt);
  server.Start();

  constexpr int kAskClients = 32;  // 4x the admission capacity of 8
  std::atomic<int> ask_ok{0};
  std::atomic<int> ask_shed{0};
  std::atomic<int> ask_other{0};
  std::vector<std::thread> askers;
  for (int i = 0; i < kAskClients; ++i) {
    askers.emplace_back([&server, &ask_ok, &ask_shed, &ask_other]() {
      Json params = Json::Object();
      params.Set("question", "What is the average mae of theta?");
      params.Set("sleep_ms", 120.0);
      auto r = server.Call("ask", params);
      if (r.ok()) {
        ask_ok.fetch_add(1);
      } else if (r.status().IsUnavailable()) {
        ask_shed.fetch_add(1);
      } else {
        ask_other.fetch_add(1);
      }
    });
  }
  std::this_thread::sleep_for(40ms);  // let the burst saturate admission

  Json params = Json::Object();
  params.Set("dataset", FirstDataset());
  params.Set("method", "naive");
  params.Set("horizon", static_cast<int64_t>(4));
  easytime::Stopwatch watch;
  auto forecast = server.Call("forecast", params);
  const double forecast_ms = watch.ElapsedSeconds() * 1000.0;
  for (auto& t : askers) t.join();

  ASSERT_TRUE(forecast.ok()) << forecast.status().ToString();
  // Quota math: forecast's guaranteed worker frees up after at most one
  // 120ms ask finishes. Anything near the full backlog (~8 * 120ms serial)
  // means the quota failed; 1.5s keeps sanitizer slack.
  EXPECT_LT(forecast_ms, 1500.0) << "forecast waited behind the ask backlog";
  EXPECT_GT(ask_shed.load(), 0) << "4x oversubscription must shed";
  EXPECT_GT(ask_ok.load(), 0) << "admitted asks must still complete";
  EXPECT_EQ(ask_other.load(), 0);
  EXPECT_EQ(ask_ok.load() + ask_shed.load(), kAskClients);

  Json stats = server.StatsJson();
  EXPECT_GE(stats.Get("admission").GetInt("shed_total", 0), 1);
  EXPECT_GE(
      stats.Get("admission").Get("classes").Get("ask").GetInt("shed", 0), 1);
  server.Stop();
}

TEST_F(QosServerTest, TcpOverloadShedsAndControlPlaneStaysResponsive) {
  // The same burst over TCP, one connection per asker. Each connection's
  // thread is the caller that admission sheds or grants, so the front-end
  // puts no queue of its own in front of the quotas: the excess asks shed,
  // and a ping or forecast on its own connection is not stuck behind them.
  ForecastServer::Options opt;
  opt.fast_lane_workers = 2;
  opt.fast_lane_capacity = 8;
  opt.cache_capacity = 0;
  ForecastServer server(system_, opt);
  server.Start();
  EventLoopServer loop(&server, EventLoopServer::Options{});
  ASSERT_TRUE(loop.Start().ok());
  const uint16_t port = loop.port();
  RetryPolicy no_retry;
  no_retry.max_attempts = 1;

  constexpr int kAskClients = 32;  // 4x the admission capacity of 8
  std::atomic<int> ask_shed{0};
  std::vector<std::thread> askers;
  for (int i = 0; i < kAskClients; ++i) {
    askers.emplace_back([port, no_retry, &ask_shed]() {
      TcpClient client(port, no_retry);
      Json params = Json::Object();
      params.Set("question", "What is the average mae of theta?");
      params.Set("sleep_ms", 120.0);
      auto r = client.Call("ask", params);
      if (!r.ok() && r.status().IsUnavailable()) ask_shed.fetch_add(1);
    });
  }
  std::this_thread::sleep_for(40ms);  // let the burst saturate admission

  double ping_ms = 0.0;
  easytime::Status ping_status;
  std::thread pinger([port, no_retry, &ping_ms, &ping_status]() {
    TcpClient client(port, no_retry);
    easytime::Stopwatch watch;
    ping_status = client.Call("ping", Json::Object()).status();
    ping_ms = watch.ElapsedSeconds() * 1000.0;
  });
  TcpClient forecaster(port, no_retry);
  Json params = Json::Object();
  params.Set("dataset", FirstDataset());
  params.Set("method", "naive");
  params.Set("horizon", static_cast<int64_t>(4));
  easytime::Stopwatch watch;
  auto forecast = forecaster.Call("forecast", params);
  const double forecast_ms = watch.ElapsedSeconds() * 1000.0;
  pinger.join();
  for (auto& t : askers) t.join();

  ASSERT_TRUE(ping_status.ok()) << ping_status.ToString();
  EXPECT_LT(ping_ms, 250.0) << "ping queued behind the ask burst";
  ASSERT_TRUE(forecast.ok()) << forecast.status().ToString();
  EXPECT_LT(forecast_ms, 1500.0) << "forecast waited behind the ask backlog";
  EXPECT_GT(ask_shed.load(), 0) << "4x oversubscription must shed over TCP";
  EXPECT_GE(server.StatsJson().Get("admission").GetInt("shed_total", 0), 1);
  loop.Stop();
  server.Stop();
}

TEST_F(QosServerTest, ServerForecastAbortsMidFitAndCountsIt) {
  ForecastServer::Options opt;
  opt.cache_capacity = 0;
  ForecastServer server(system_, opt);
  server.Start();

  Json values = Json::Array();
  for (double v : LongRandomWalk(6000)) values.Append(v);
  Json cfg = Json::Object();
  cfg.Set("num_trees", static_cast<int64_t>(400));
  cfg.Set("max_depth", static_cast<int64_t>(6));
  Json params = Json::Object();
  params.Set("values", std::move(values));
  params.Set("method", "gbdt");
  params.Set("config", std::move(cfg));
  params.Set("horizon", static_cast<int64_t>(8));
  params.Set("deadline_ms", 80.0);

  easytime::Stopwatch watch;
  auto r = server.Call("forecast", params);
  const double ms = watch.ElapsedSeconds() * 1000.0;
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsDeadlineExceeded()) << r.status().ToString();
  EXPECT_LT(ms, 2000.0) << "the fit ran to completion instead of aborting";

  Json stats = server.StatsJson();
  EXPECT_GE(stats.GetInt("deadline_exceeded", 0), 1);
  server.Stop();
}

TEST_F(QosServerTest, DeadlineMsMustBeAPositiveFiniteNumber) {
  ForecastServer server(system_);
  server.Start();
  Json base = Json::Object();
  base.Set("dataset", FirstDataset());
  base.Set("method", "naive");

  {
    Json params = base;
    params.Set("deadline_ms", "soon");  // wrong type
    auto r = server.Call("forecast", params);
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();
  }
  {
    Json params = base;
    params.Set("deadline_ms", true);  // booleans are not numbers
    auto r = server.Call("forecast", params);
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();
  }
  {
    Json params = base;
    params.Set("deadline_ms", 0.0);  // zero budget is malformed, not instant
    auto r = server.Call("forecast", params);
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();
  }
  server.Stop();
}

TEST_F(QosServerTest, StatsJsonCarriesQosCounters) {
  ForecastServer server(system_);
  server.Start();
  Json stats = server.StatsJson();
  EXPECT_TRUE(stats.Has("admission"));
  EXPECT_TRUE(stats.Get("admission").Has("classes"));
  EXPECT_FALSE(stats.Has("brownout"));
  EXPECT_FALSE(stats.Has("brownout_enters"));
  EXPECT_FALSE(stats.Get("admission").Has("brownout"));
  EXPECT_TRUE(stats.Has("deadline_exceeded"));
  EXPECT_TRUE(stats.Has("degraded_responses"));
  server.Stop();
}

// The counters one endpoint's stats carry: requests, ok, errors, rejected,
// cache_hits.
using Counters = std::array<int64_t, 5>;

Counters EndpointCounters(const Json& stats, const std::string& endpoint) {
  const Json& e = stats.Get("endpoints").Get(endpoint);
  return {e.GetInt("requests", 0), e.GetInt("ok", 0), e.GetInt("errors", 0),
          e.GetInt("rejected", 0), e.GetInt("cache_hits", 0)};
}

int64_t TotalRequests(const Json& stats) {
  int64_t total = 0;
  for (const auto& name : stats.Get("endpoints").keys()) {
    total += stats.Get("endpoints").Get(name).GetInt("requests", 0);
  }
  return total;
}

Counters Delta(const Json& before, const Json& after,
               const std::string& endpoint) {
  Counters d = EndpointCounters(after, endpoint);
  const Counters b = EndpointCounters(before, endpoint);
  for (size_t i = 0; i < d.size(); ++i) d[i] -= b[i];
  return d;
}

void ExpectSlotsGivenBack(const ForecastServer& server) {
  const Json admission = server.StatsJson().Get("admission");
  EXPECT_EQ(admission.GetInt("total_pending", -1), 0);
  EXPECT_EQ(admission.GetInt("total_running", -1), 0);
}

TEST_F(QosServerTest, EveryFastLaneExitGivesBackWhatItClaimed) {
  // Each way out of the fast lane records exactly one request under its
  // endpoint and leaves no queue or worker slot behind: a cache hit, a
  // success, a method error, a deadline that expired while queued, a shed
  // over quota and a refusal while Stop() drains.
  const Counters kOk = {1, 1, 0, 0, 0};
  const Counters kHit = {1, 1, 0, 0, 1};
  const Counters kError = {1, 0, 1, 0, 0};
  const Counters kRejected = {1, 0, 1, 1, 0};
  Json forecast = Json::Object();
  forecast.Set("dataset", FirstDataset());
  forecast.Set("method", "naive");
  forecast.Set("horizon", static_cast<int64_t>(4));
  Json slow_ask = Json::Object();
  slow_ask.Set("question", "What is the average mae of theta?");
  slow_ask.Set("sleep_ms", 300.0);

  {
    ForecastServer::Options opt;
    opt.warm_cache = false;
    opt.fast_lane_workers = 1;
    ForecastServer server(system_, opt);
    server.Start();
    // Sequential calls: success, then the same request as a cache hit,
    // then a method error.
    Json failing = forecast;
    failing.Set("method", "no_such_method");
    const std::vector<std::pair<Json, Counters>> calls = {
        {forecast, kOk}, {forecast, kHit}, {failing, kError}};
    for (const auto& [params, want] : calls) {
      const Json before = server.StatsJson();
      auto r = server.Call("forecast", params);
      EXPECT_EQ(r.ok(), want[1] == 1) << r.status().ToString();
      const Json after = server.StatsJson();
      EXPECT_EQ(Delta(before, after, "forecast"), want);
      EXPECT_EQ(TotalRequests(after) - TotalRequests(before), 1);
      ExpectSlotsGivenBack(server);
    }

    // A slow ask holds the only worker; a forecast with a 20 ms budget
    // queues behind it and is refused once granted.
    std::thread holder([&]() { EXPECT_TRUE(server.Call("ask", slow_ask).ok()); });
    ASSERT_TRUE(WaitFor([&]() {
      return server.StatsJson().Get("admission").GetInt("total_running", 0) ==
             1;
    }));
    const Json before = server.StatsJson();
    Json budgeted = forecast;
    budgeted.Set("horizon", static_cast<int64_t>(5));
    budgeted.Set("deadline_ms", 20.0);
    auto r = server.Call("forecast", budgeted);
    holder.join();
    EXPECT_TRUE(r.status().IsDeadlineExceeded()) << r.status().ToString();
    const Json after = server.StatsJson();
    EXPECT_EQ(Delta(before, after, "forecast"), kError);
    EXPECT_EQ(Delta(before, after, "ask"), kOk);
    EXPECT_EQ(TotalRequests(after) - TotalRequests(before), 2);
    EXPECT_EQ(after.GetInt("deadline_exceeded", 0) -
                  before.GetInt("deadline_exceeded", 0),
              1);
    ExpectSlotsGivenBack(server);
    server.Stop();
  }

  {
    // Capacity 2: two slow forecasts fill forecast's one reserved slot and
    // the shared headroom, so a third is shed at the door.
    ForecastServer::Options opt;
    opt.warm_cache = false;
    opt.cache_capacity = 0;
    opt.fast_lane_capacity = 2;
    opt.fast_lane_workers = 2;
    ForecastServer server(system_, opt);
    server.Start();
    Json slow = forecast;
    slow.Set("sleep_ms", 800.0);
    std::vector<std::thread> holders;
    for (int i = 0; i < 2; ++i) {
      holders.emplace_back(
          [&]() { EXPECT_TRUE(server.Call("forecast", slow).ok()); });
    }
    ASSERT_TRUE(WaitFor([&]() {
      return server.StatsJson().Get("admission").GetInt("total_running", 0) ==
             2;
    }));
    const Json before = server.StatsJson();
    auto r = server.Call("forecast", forecast);
    const Json after = server.StatsJson();
    EXPECT_TRUE(r.status().IsUnavailable()) << r.status().ToString();
    EXPECT_EQ(Delta(before, after, "forecast"), kRejected);
    EXPECT_EQ(TotalRequests(after) - TotalRequests(before), 1);
    for (auto& t : holders) t.join();
    ExpectSlotsGivenBack(server);
    server.Stop();
  }

  {
    // The "serve.admitted" delay parks an admitted request before it asks
    // for a worker; Stop() drains meanwhile, so the acquire is refused.
    ForecastServer::Options opt;
    opt.warm_cache = false;
    ForecastServer server(system_, opt);
    server.Start();
    FaultSpec park;
    park.kind = FaultKind::kDelay;
    park.delay_ms = 500.0;
    park.max_triggers = 1;
    ASSERT_TRUE(FaultRegistry::Global().Arm("serve.admitted", park).ok());
    const Json before = server.StatsJson();
    easytime::Status refused;
    std::thread caller(
        [&]() { refused = server.Call("forecast", forecast).status(); });
    ASSERT_TRUE(WaitFor([&]() {
      return server.StatsJson().Get("admission").GetInt("total_pending", 0) ==
             1;
    }));
    server.Stop();
    caller.join();
    EXPECT_TRUE(refused.IsUnavailable()) << refused.ToString();
    EXPECT_NE(refused.message().find("shutting down"), std::string::npos)
        << refused.ToString();
    const Json after = server.StatsJson();
    EXPECT_EQ(Delta(before, after, "forecast"), kRejected);
    EXPECT_EQ(TotalRequests(after) - TotalRequests(before), 1);
    ExpectSlotsGivenBack(server);
  }
}

// ---------------------------------------------------------------------------
// Token auth on the TCP listener
// ---------------------------------------------------------------------------

TEST_F(QosServerTest, AuthTokenGatesTheTcpListener) {
  ForecastServer server(system_);
  server.Start();
  EventLoopServer::Options lopt;
  lopt.auth_token = "sekrit";
  EventLoopServer loop(&server, lopt);
  ASSERT_TRUE(loop.Start().ok());

  RetryPolicy no_retry;
  no_retry.max_attempts = 1;

  {  // correct token: handshake inside Connect(), then normal traffic
    TcpClient client(loop.port(), no_retry, "sekrit");
    auto pong = client.Call("ping", Json::Object());
    ASSERT_TRUE(pong.ok()) << pong.status().ToString();
    EXPECT_TRUE(pong->GetBool("pong", false));
    auto again = client.Call("ping", Json::Object());
    EXPECT_TRUE(again.ok()) << "the session stays authenticated";
  }
  {  // wrong token: rejected during Connect, not retried
    TcpClient client(loop.port(), no_retry, "wrong");
    auto r = client.Call("ping", Json::Object());
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsUnauthenticated()) << r.status().ToString();
  }
  {  // no token: the first (non-auth) frame draws Unauthenticated + close
    TcpClient client(loop.port(), no_retry);
    auto r = client.Call("ping", Json::Object());
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsUnauthenticated()) << r.status().ToString();
  }

  EXPECT_GE(loop.stats().auth_failures, 2u);
  loop.Stop();
  server.Stop();
}

TEST_F(QosServerTest, AuthTokenFallsBackToTheEnvironment) {
  ::setenv("EASYTIME_AUTH_TOKEN", "env-token", 1);
  ForecastServer server(system_);
  server.Start();
  EventLoopServer loop(&server, EventLoopServer::Options{});
  ASSERT_TRUE(loop.Start().ok());

  RetryPolicy no_retry;
  no_retry.max_attempts = 1;
  TcpClient client(loop.port(), no_retry);  // also reads the env var
  auto pong = client.Call("ping", Json::Object());
  EXPECT_TRUE(pong.ok()) << pong.status().ToString();

  ::unsetenv("EASYTIME_AUTH_TOKEN");
  TcpClient bare(loop.port(), no_retry);  // constructed after the unset
  auto rejected = bare.Call("ping", Json::Object());
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsUnauthenticated())
      << rejected.status().ToString();

  loop.Stop();
  server.Stop();
}

// Regression: a client that loses its connection mid-session must re-send
// the auth handshake when its retry path reconnects — otherwise the first
// retried frame lands unauthenticated and draws a terminal rejection even
// though the token is correct.
TEST_F(QosServerTest, AuthHandshakeIsResentAcrossMidRetryReconnects) {
  ForecastServer server(system_);
  server.Start();
  EventLoopServer::Options lopt;
  lopt.auth_token = "sekrit";
  auto first_loop = std::make_unique<EventLoopServer>(&server, lopt);
  ASSERT_TRUE(first_loop->Start().ok());
  const uint16_t port = first_loop->port();

  RetryPolicy retry;
  retry.max_attempts = 4;
  retry.base_delay_ms = 20.0;
  TcpClient client(port, retry, "sekrit");
  auto pong = client.Call("ping", Json::Object());
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();

  // Tear the listener down and bring a fresh one up on the same port: the
  // client's established (and authenticated) connection is now dead.
  first_loop->Stop();
  first_loop.reset();
  lopt.port = port;
  EventLoopServer second_loop(&server, lopt);
  ASSERT_TRUE(second_loop.Start().ok());

  // The retried call reconnects — and must authenticate again before the
  // request frame, or the new listener rejects the session.
  auto again = client.Call("ping", Json::Object());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_TRUE(again->GetBool("pong", false));
  EXPECT_EQ(second_loop.stats().auth_failures, 0u);

  // The at-most-once probe reports transmission accounting: against a live
  // server the request goes out; against a closed port the failure happens
  // before any request byte, so a retry would be safe.
  bool request_sent = false;
  Json req = Json::Object();
  req.Set("id", int64_t{1});
  req.Set("endpoint", "ping");
  req.Set("params", Json::Object());
  auto once = client.SendLineOnce(req.Dump(), &request_sent);
  EXPECT_TRUE(once.ok()) << once.status().ToString();
  EXPECT_TRUE(request_sent);

  second_loop.Stop();
  TcpClient cold(port, retry, "sekrit");
  auto refused = cold.SendLineOnce(req.Dump(), &request_sent);
  EXPECT_FALSE(refused.ok());
  EXPECT_FALSE(request_sent) << "connect-level failures must stay retryable";

  server.Stop();
}

// ---------------------------------------------------------------------------
// Hardened EASYTIME_NUM_THREADS parsing
// ---------------------------------------------------------------------------

// The variable is read once, when the process pool is first used, so each
// value is checked in a fresh child process (a threadsafe-style death test
// re-executes this binary) that sizes GlobalThreadPool and exits 0 when the
// size matches.
TEST(QosThreadPoolTest, NumThreadsEnvIsValidatedAndClamped) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const size_t hw = std::max<size_t>(1, std::thread::hardware_concurrency());
  auto expect_pool_size = [](const char* value, size_t want) {
    EXPECT_EXIT(
        {
          if (value != nullptr) {
            ::setenv("EASYTIME_NUM_THREADS", value, 1);
          } else {
            ::unsetenv("EASYTIME_NUM_THREADS");
          }
          std::_Exit(GlobalThreadPool().size() == want ? 0 : 1);
        },
        ::testing::ExitedWithCode(0), "")
        << "EASYTIME_NUM_THREADS=" << (value ? value : "(unset)");
  };
  expect_pool_size("garbage", hw);  // malformed falls back to hardware
  expect_pool_size("12abc", hw);    // trailing junk is malformed
  expect_pool_size("0", hw);
  expect_pool_size("-4", hw);
  expect_pool_size("3", 3);  // sane values pass through
  expect_pool_size("100000000", std::max<size_t>(256, 4 * hw));  // clamped
  expect_pool_size(nullptr, hw);
}

}  // namespace
}  // namespace easytime::serve
