// Robustness tests: deadline propagation, retry with backoff, the per-method
// circuit breaker, checkpoint/resume of evaluation runs, and graceful
// degradation of the recommend endpoint.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/circuit_breaker.h"
#include "common/deadline.h"
#include "common/fault.h"
#include "eval/evaluator.h"
#include "methods/registry.h"
#include "pipeline/benchmark_config.h"
#include "pipeline/runner.h"
#include "serve/job_manager.h"
#include "serve/request.h"
#include "serve/retry.h"
#include "serve/server.h"
#include "tsdata/generator.h"

namespace easytime {
namespace {

using namespace std::chrono_literals;

// ----------------------------------------------------------------- Deadline

TEST(DeadlineTest, DefaultIsInfinite) {
  Deadline d;
  EXPECT_TRUE(d.infinite());
  EXPECT_FALSE(d.expired());
  EXPECT_TRUE(std::isinf(d.remaining_ms()));
  EXPECT_FALSE(Deadline::Infinite().expired());
}

TEST(DeadlineTest, AfterMillisExpires) {
  Deadline d = Deadline::AfterMillis(15.0);
  EXPECT_FALSE(d.infinite());
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.remaining_ms(), 0.0);
  std::this_thread::sleep_for(25ms);
  EXPECT_TRUE(d.expired());
  EXPECT_LE(d.remaining_ms(), 0.0);
}

TEST(DeadlineTest, AlreadyPassedTimePointIsExpired) {
  Deadline d = Deadline::At(Deadline::Clock::now() - 1ms);
  EXPECT_TRUE(d.expired());
}

// A budget too large for the clock's nanosecond time point must not wrap
// around into the past: it saturates to infinite, while a large budget that
// still fits keeps counting down.
TEST(DeadlineTest, HugeBudgetsSaturateInsteadOfExpiring) {
  for (double ms : {1e13, 1e14, 1e300}) {
    Json params = Json::Object();
    params.Set("deadline_ms", ms);
    auto d = serve::ParseDeadline(params);
    ASSERT_TRUE(d.ok()) << ms;
    EXPECT_FALSE(d->expired()) << ms;
    EXPECT_TRUE(d->infinite()) << ms;
  }
  Json params = Json::Object();
  params.Set("deadline_ms", 1e12);
  auto d = serve::ParseDeadline(params);
  ASSERT_TRUE(d.ok());
  EXPECT_FALSE(d->infinite());
  EXPECT_FALSE(d->expired());
  EXPECT_GT(d->remaining_ms(), 0.99e12);

  EXPECT_TRUE(Deadline::AfterMillis(-1e300).expired());
  EXPECT_FALSE(Deadline::AfterMillis(-1e300).infinite());
}

// ------------------------------------------------- Evaluator deadline checks

TEST(RobustnessTest, EvaluatorHonorsExpiredDeadline) {
  auto model = methods::MethodRegistry::Global().Create("naive");
  ASSERT_TRUE(model.ok());
  std::vector<double> v(200);
  for (size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i % 17);

  eval::EvalConfig cfg;
  cfg.horizon = 8;
  cfg.metrics = {"mae"};
  eval::Evaluator evaluator(cfg);

  Deadline expired = Deadline::At(Deadline::Clock::now() - 1ms);
  auto r = evaluator.EvaluateValues(model->get(), v, 0, expired);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsDeadlineExceeded());

  // The default (infinite) deadline leaves evaluation untouched.
  auto ok = evaluator.EvaluateValues(model->get(), v);
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
}

// ------------------------------------------------------ Pipeline run control

tsdata::Repository MakeRepo() {
  tsdata::Repository repo;
  tsdata::SuiteSpec spec;
  spec.univariate_per_domain = 1;
  spec.multivariate_total = 0;
  spec.min_length = 120;
  spec.max_length = 140;
  EXPECT_TRUE(repo.AddSuite(spec).ok());
  return repo;
}

pipeline::BenchmarkConfig SingleMethodConfig(const std::string& method) {
  pipeline::BenchmarkConfig config;
  config.eval.horizon = 8;
  config.eval.metrics = {"mae"};
  config.methods = {pipeline::MethodSpec{method, Json::Object()}};
  config.num_threads = 1;  // strictly sequential: deterministic order
  return config;
}

TEST(RobustnessTest, PipelineRunReturnsDeadlineExceededOnExpiredDeadline) {
  tsdata::Repository repo = MakeRepo();
  pipeline::BenchmarkConfig config = SingleMethodConfig("naive");
  pipeline::RunHooks hooks;
  hooks.deadline = Deadline::At(Deadline::Clock::now() - 1ms);
  auto report = pipeline::PipelineRunner(&repo, config).Run(hooks);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsDeadlineExceeded());
}

TEST(RobustnessTest, CircuitBreakerSkipsMethodAfterConsecutiveFailures) {
  FaultRegistry::Global().DisarmAll();
  tsdata::Repository repo = MakeRepo();
  ASSERT_GE(repo.size(), 5u);

  pipeline::BenchmarkConfig config = SingleMethodConfig("naive");
  config.breaker_threshold = 3;

  // Every evaluated pair fails via the pipeline.pair fault point; after 3
  // consecutive failures the breaker must stop evaluating this method.
  FaultSpec spec;
  spec.kind = FaultKind::kError;
  spec.code = StatusCode::kInternal;
  ASSERT_TRUE(FaultRegistry::Global().Arm("pipeline.pair", spec).ok());

  auto report = pipeline::PipelineRunner(&repo, config).Run();
  FaultRegistry::Global().DisarmAll();

  ASSERT_TRUE(report.ok());
  size_t injected = 0;
  size_t skipped = 0;
  for (const auto& rec : report->records) {
    ASSERT_FALSE(rec.status.ok());
    if (rec.status.IsUnavailable() &&
        rec.status.message().find("circuit breaker open") !=
            std::string::npos) {
      ++skipped;
    } else {
      ++injected;
    }
  }
  EXPECT_EQ(injected + skipped, repo.size());
  // num_threads = 1 runs the pairs strictly in order, so the breaker opens
  // right after the third failure.
  EXPECT_EQ(injected, 3u);
  EXPECT_EQ(skipped, repo.size() - 3u);
}

TEST(RobustnessTest, CircuitBreakerDisabledWithThresholdZero) {
  FaultRegistry::Global().DisarmAll();
  tsdata::Repository repo = MakeRepo();
  pipeline::BenchmarkConfig config = SingleMethodConfig("naive");
  config.breaker_threshold = 0;

  FaultSpec spec;
  spec.kind = FaultKind::kError;
  ASSERT_TRUE(FaultRegistry::Global().Arm("pipeline.pair", spec).ok());
  auto report = pipeline::PipelineRunner(&repo, config).Run();
  FaultRegistry::Global().DisarmAll();

  ASSERT_TRUE(report.ok());
  for (const auto& rec : report->records) {
    EXPECT_TRUE(rec.status.IsInternal()) << rec.status.ToString();
  }
}

TEST(RobustnessTest, BreakerOnOneMethodSparesOtherMethods) {
  // A method that always fails fit, pinning every failure to one method so
  // the per-method breaker isolation is deterministic under concurrency.
  static const bool registered = [] {
    return methods::MethodRegistry::Global()
        .Register({"breaker_victim", methods::Family::kStatistical,
                   "robustness test: always fails"},
                  [](const Json&) -> Result<methods::ForecasterPtr> {
                    return Status::Internal("injected factory failure");
                  })
        .ok();
  }();
  ASSERT_TRUE(registered);

  tsdata::Repository repo = MakeRepo();
  pipeline::BenchmarkConfig config = SingleMethodConfig("breaker_victim");
  config.methods.push_back(pipeline::MethodSpec{"drift", Json::Object()});
  config.breaker_threshold = 2;

  auto report = pipeline::PipelineRunner(&repo, config).Run();
  ASSERT_TRUE(report.ok());

  std::map<std::string, size_t> ok_by_method;
  size_t victim_skipped = 0;
  for (const auto& rec : report->records) {
    if (rec.status.ok()) ++ok_by_method[rec.method];
    if (rec.method == "breaker_victim" && rec.status.IsUnavailable()) {
      ++victim_skipped;
    }
  }
  // The victim's breaker trips and skips most of its pairs...
  EXPECT_EQ(ok_by_method["breaker_victim"], 0u);
  EXPECT_GE(victim_skipped, repo.size() - 3);
  // ...while the healthy method is untouched by the victim's breaker.
  EXPECT_EQ(ok_by_method["drift"], repo.size());

  // Breaker state is per-run: a fresh run of healthy methods is unaffected.
  auto clean =
      pipeline::PipelineRunner(&repo, SingleMethodConfig("drift")).Run();
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(clean->Successful().size(), clean->records.size());
}

// ------------------------------------------------ RunRecord JSON round trip

TEST(RobustnessTest, RunRecordJsonRoundTrip) {
  pipeline::RunRecord rec;
  rec.dataset = "traffic_u0";
  rec.method = "theta";
  rec.strategy = "fixed";
  rec.horizon = 24;
  rec.multivariate = false;
  rec.domain = "traffic";
  rec.metrics = {{"mae", 1.25}, {"rmse", 2.5}};
  rec.num_windows = 3;
  rec.fit_seconds = 0.5;
  rec.forecast_seconds = 0.25;
  rec.status = Status::OK();

  auto back = pipeline::RunRecord::FromJson(rec.ToJson());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->dataset, rec.dataset);
  EXPECT_EQ(back->method, rec.method);
  EXPECT_EQ(back->strategy, rec.strategy);
  EXPECT_EQ(back->horizon, rec.horizon);
  EXPECT_EQ(back->domain, rec.domain);
  EXPECT_DOUBLE_EQ(back->metrics.at("mae"), 1.25);
  EXPECT_DOUBLE_EQ(back->metrics.at("rmse"), 2.5);
  EXPECT_EQ(back->num_windows, 3u);
  EXPECT_TRUE(back->status.ok());

  rec.status = Status::Unavailable("worker gone");
  auto failed = pipeline::RunRecord::FromJson(rec.ToJson());
  ASSERT_TRUE(failed.ok());
  EXPECT_TRUE(failed->status.IsUnavailable());
  EXPECT_EQ(failed->status.message(), "worker gone");

  EXPECT_FALSE(pipeline::RunRecord::FromJson(Json::Object()).ok());
  EXPECT_NE(pipeline::PairKey("a", "b"), pipeline::PairKey("a", "c"));
  EXPECT_NE(pipeline::PairKey("ab", "c"), pipeline::PairKey("a", "bc"));
}

// --------------------------------------------------- Runner resume splicing

TEST(RobustnessTest, RunnerSplicesCompletedRecordsWithoutReevaluating) {
  tsdata::Repository repo = MakeRepo();
  pipeline::BenchmarkConfig config = SingleMethodConfig("naive");

  std::map<std::string, pipeline::RunRecord> completed;
  std::atomic<size_t> fresh{0};
  {
    std::mutex completed_mu;  // on_record runs on the runner's workers
    pipeline::RunHooks hooks;
    hooks.on_record = [&](const pipeline::RunRecord& rec) {
      std::lock_guard<std::mutex> lock(completed_mu);
      completed[pipeline::PairKey(rec.dataset, rec.method)] = rec;
      fresh.fetch_add(1);
    };
    auto first = pipeline::PipelineRunner(&repo, config).Run(hooks);
    ASSERT_TRUE(first.ok());
    EXPECT_EQ(fresh.load(), first->records.size());
  }

  // Resume with everything checkpointed: nothing fresh is evaluated, the
  // report is complete, and on_record stays silent.
  fresh.store(0);
  pipeline::RunHooks hooks;
  hooks.completed = &completed;
  hooks.on_record = [&](const pipeline::RunRecord&) { fresh.fetch_add(1); };
  auto resumed = pipeline::PipelineRunner(&repo, config).Run(hooks);
  ASSERT_TRUE(resumed.ok());
  EXPECT_EQ(fresh.load(), 0u);
  EXPECT_EQ(resumed->Successful().size(), resumed->records.size());
  EXPECT_EQ(resumed->records.size(), completed.size());
}

// -------------------------------------------------------------------- Retry

TEST(RetryTest, RetriesTransientUnavailableUntilSuccess) {
  serve::RetryPolicy policy;
  policy.max_attempts = 5;
  policy.base_delay_ms = 1.0;
  policy.seed = 7;
  int calls = 0;
  auto result = serve::RetryCall(policy, [&]() -> Result<int> {
    if (++calls < 3) return Status::Unavailable("try again");
    return 99;
  });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 99);
  EXPECT_EQ(calls, 3);
}

TEST(RetryTest, PermanentFailuresAreNotRetried) {
  serve::RetryPolicy policy;
  policy.max_attempts = 5;
  policy.base_delay_ms = 1.0;
  int calls = 0;
  auto result = serve::RetryCall(policy, [&]() -> Result<int> {
    ++calls;
    return Status::InvalidArgument("bad input");
  });
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(calls, 1);
}

TEST(RetryTest, GivesUpAfterMaxAttempts) {
  serve::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.base_delay_ms = 1.0;
  int calls = 0;
  auto result = serve::RetryCall(policy, [&]() -> Status {
    ++calls;
    return Status::Unavailable("still down");
  });
  EXPECT_TRUE(result.IsUnavailable());
  EXPECT_EQ(calls, 3);
}

TEST(RetryTest, StopsWhenBackoffWouldOutliveDeadline) {
  serve::RetryPolicy policy;
  policy.max_attempts = 10;
  policy.base_delay_ms = 50.0;
  policy.seed = 7;
  int calls = 0;
  auto result = serve::RetryCall(
      policy,
      [&]() -> Status {
        ++calls;
        return Status::Unavailable("down");
      },
      Deadline::AfterMillis(10.0));
  EXPECT_TRUE(result.IsUnavailable());
  EXPECT_EQ(calls, 1) << "a 25ms+ backoff must not be attempted on a 10ms "
                         "budget";
}

TEST(RetryTest, BackoffScheduleIsExponentialAndCapped) {
  serve::RetryPolicy policy;
  policy.base_delay_ms = 5.0;
  policy.max_delay_ms = 30.0;
  EXPECT_DOUBLE_EQ(policy.DelayMs(0), 5.0);
  EXPECT_DOUBLE_EQ(policy.DelayMs(1), 10.0);
  EXPECT_DOUBLE_EQ(policy.DelayMs(2), 20.0);
  EXPECT_DOUBLE_EQ(policy.DelayMs(3), 30.0);  // capped
  EXPECT_DOUBLE_EQ(policy.DelayMs(10), 30.0);
}

// ----------------------------------------------- BenchmarkConfig round trip

TEST(RobustnessTest, BreakerThresholdSurvivesConfigRoundTrip) {
  auto j = Json::Parse(R"({"breaker_threshold": 7})");
  ASSERT_TRUE(j.ok());
  auto config = pipeline::BenchmarkConfig::FromJson(*j);
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->breaker_threshold, 7u);

  EXPECT_EQ(config->ToJson().GetInt("breaker_threshold", -1), 7);

  auto dflt = pipeline::BenchmarkConfig::FromJson(Json::Object());
  ASSERT_TRUE(dflt.ok());
  EXPECT_EQ(dflt->breaker_threshold, 5u);

  auto bad = Json::Parse(R"({"breaker_threshold": -1})");
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(pipeline::BenchmarkConfig::FromJson(*bad).ok());
}

// ------------------------------------------------ Half-open circuit breaker
//
// CircuitBreaker takes time points from the caller, so these tests drive the
// open -> half-open -> closed machine with a synthetic clock — no sleeping.

using BreakerState = CircuitBreaker::State;

CircuitBreaker::TimePoint BreakerAt(double ms) {
  static const auto epoch = std::chrono::steady_clock::now();
  return epoch +
         std::chrono::duration_cast<std::chrono::steady_clock::duration>(
             std::chrono::duration<double, std::milli>(ms));
}

TEST(CircuitBreakerTest, OpensThenHalfOpensThenClosesOnProbeSuccess) {
  CircuitBreaker::Options opt;
  opt.threshold = 2;
  opt.cooldown_ms = 100.0;
  CircuitBreaker b(opt);

  EXPECT_EQ(b.state(), BreakerState::kClosed);
  EXPECT_TRUE(b.Allow(BreakerAt(0)));
  b.RecordFailure(BreakerAt(0));
  EXPECT_TRUE(b.Allow(BreakerAt(1)));
  b.RecordFailure(BreakerAt(1));  // second consecutive failure: trip
  EXPECT_EQ(b.state(), BreakerState::kOpen);
  EXPECT_TRUE(b.ConsumeTripEvent());
  EXPECT_FALSE(b.ConsumeTripEvent()) << "a trip is logged exactly once";

  EXPECT_FALSE(b.Allow(BreakerAt(50))) << "still cooling down";
  EXPECT_TRUE(b.Allow(BreakerAt(102))) << "cooldown elapsed: the probe call";
  EXPECT_EQ(b.state(), BreakerState::kHalfOpen);
  EXPECT_FALSE(b.Allow(BreakerAt(103))) << "one probe at a time";

  b.RecordSuccess();
  EXPECT_EQ(b.state(), BreakerState::kClosed);
  EXPECT_TRUE(b.Allow(BreakerAt(104)));
  // Closing reset the failure streak: one new failure does not re-trip.
  b.RecordFailure(BreakerAt(105));
  EXPECT_EQ(b.state(), BreakerState::kClosed);
  EXPECT_TRUE(b.Allow(BreakerAt(106)));
}

TEST(CircuitBreakerTest, ResetClosesAndClearsTheFailureStreak) {
  CircuitBreaker::Options opt;
  opt.threshold = 2;
  opt.cooldown_ms = 0.0;  // open means open forever — only Reset recovers
  CircuitBreaker b(opt);

  b.RecordFailure(BreakerAt(0));
  b.RecordFailure(BreakerAt(1));
  EXPECT_EQ(b.state(), BreakerState::kOpen);
  EXPECT_FALSE(b.Allow(BreakerAt(10)));
  EXPECT_TRUE(b.ConsumeTripEvent());

  // The guarded endpoint was replaced (e.g. a promoted shard worker):
  // Reset restores the pristine closed state on the SAME object.
  b.Reset();
  EXPECT_EQ(b.state(), BreakerState::kClosed);
  EXPECT_TRUE(b.Allow(BreakerAt(11)));
  b.RecordFailure(BreakerAt(12));
  EXPECT_EQ(b.state(), BreakerState::kClosed)
      << "the pre-Reset failure streak must not carry over";
  b.RecordFailure(BreakerAt(13));
  EXPECT_EQ(b.state(), BreakerState::kOpen);
  EXPECT_TRUE(b.ConsumeTripEvent()) << "a fresh trip logs again after Reset";
}

TEST(CircuitBreakerTest, FailedProbeReTripsForAnotherCooldown) {
  CircuitBreaker::Options opt;
  opt.threshold = 1;
  opt.cooldown_ms = 100.0;
  CircuitBreaker b(opt);

  b.RecordFailure(BreakerAt(0));
  EXPECT_EQ(b.state(), BreakerState::kOpen);
  // A straggler completing after the trip must not move the cooldown window.
  b.RecordFailure(BreakerAt(60));
  EXPECT_TRUE(b.Allow(BreakerAt(101)))
      << "cooldown counts from the original trip, not late completions";
  EXPECT_EQ(b.state(), BreakerState::kHalfOpen);

  b.RecordFailure(BreakerAt(101));  // the probe failed: re-trip
  EXPECT_EQ(b.state(), BreakerState::kOpen);
  EXPECT_FALSE(b.Allow(BreakerAt(150))) << "a fresh cooldown started";
  EXPECT_TRUE(b.Allow(BreakerAt(202)));
  b.RecordSuccess();
  EXPECT_EQ(b.state(), BreakerState::kClosed);
}

TEST(CircuitBreakerTest, HalfOpenProbeAdmitsExactlyOneUnderConcurrency) {
  // The half-open transition is a race magnet: when the cooldown lapses,
  // every stalled caller arrives at Allow() at once, and exactly one may
  // carry the probe — two probes against a still-broken backend would
  // defeat the breaker's purpose. Run under TSan this also proves the
  // transition is data-race-free.
  CircuitBreaker::Options opt;
  opt.threshold = 1;
  opt.cooldown_ms = 100.0;
  CircuitBreaker b(opt);
  b.RecordFailure(BreakerAt(0));
  ASSERT_EQ(b.state(), BreakerState::kOpen);

  constexpr int kThreads = 8;
  const auto probe_time = BreakerAt(200.0);  // cooldown elapsed for everyone
  std::atomic<int> ready{0};
  std::atomic<int> admitted{0};
  std::vector<std::thread> callers;
  for (int i = 0; i < kThreads; ++i) {
    callers.emplace_back([&]() {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }  // spin barrier: maximize the collision window
      if (b.Allow(probe_time)) admitted.fetch_add(1);
    });
  }
  for (auto& t : callers) t.join();

  EXPECT_EQ(admitted.load(), 1) << "exactly one caller may carry the probe";
  EXPECT_EQ(b.state(), BreakerState::kHalfOpen);

  // The probe's verdict still drives the machine as usual.
  b.RecordSuccess();
  EXPECT_EQ(b.state(), BreakerState::kClosed);
}

TEST(CircuitBreakerTest, CooldownZeroKeepsAnOpenBreakerOpen) {
  CircuitBreaker::Options opt;
  opt.threshold = 1;
  opt.cooldown_ms = 0.0;
  CircuitBreaker b(opt);

  b.RecordFailure(BreakerAt(0));
  EXPECT_EQ(b.state(), BreakerState::kOpen);
  EXPECT_FALSE(b.Allow(BreakerAt(1e9))) << "no cooldown: open for the run";
}

TEST(CircuitBreakerTest, ThresholdZeroDisablesTheBreaker) {
  CircuitBreaker b(CircuitBreaker::Options{});
  b.RecordFailure(BreakerAt(0));
  b.RecordFailure(BreakerAt(1));
  b.RecordFailure(BreakerAt(2));
  EXPECT_EQ(b.state(), BreakerState::kClosed);
  EXPECT_TRUE(b.Allow(BreakerAt(3)));
  EXPECT_FALSE(b.ConsumeTripEvent());
}

std::atomic<int> g_flaky_factory_calls{0};

/// Healthy-but-slow pacer: each Fit sleeps long enough for a tripped
/// neighbour's cooldown to elapse before its next pair comes up.
class SleepyNaive final : public methods::Forecaster {
 public:
  Status Fit(const std::vector<double>& train,
             const methods::FitContext&) override {
    std::this_thread::sleep_for(30ms);
    last_ = train.empty() ? 0.0 : train.back();
    return Status::OK();
  }
  Result<std::vector<double>> Forecast(size_t horizon) const override {
    return std::vector<double>(horizon, last_);
  }
  std::string name() const override { return "halfopen_pacer"; }
  methods::Family family() const override {
    return methods::Family::kStatistical;
  }

 private:
  double last_ = 0.0;
};

// End-to-end half-open recovery inside a pipeline run: a method that fails
// its first two instantiations trips its breaker, the interleaved slow
// method lets the cooldown elapse, and the next pair probes, succeeds, and
// closes the breaker — so the run finishes with no skipped pairs at all.
TEST(RobustnessTest, BreakerHalfOpenProbeRecoversMidRun) {
  static const bool registered = [] {
    bool flaky =
        methods::MethodRegistry::Global()
            .Register({"halfopen_flaky", methods::Family::kStatistical,
                       "robustness test: fails its first two instantiations"},
                      [](const Json&) -> Result<methods::ForecasterPtr> {
                        if (g_flaky_factory_calls.fetch_add(1) < 2) {
                          return Status::Internal("injected warm-up failure");
                        }
                        return methods::MethodRegistry::Global().Create(
                            "drift");
                      })
            .ok();
    bool pacer =
        methods::MethodRegistry::Global()
            .Register({"halfopen_pacer", methods::Family::kStatistical,
                       "robustness test: healthy but slow"},
                      [](const Json&) -> Result<methods::ForecasterPtr> {
                        return methods::ForecasterPtr(new SleepyNaive());
                      })
            .ok();
    return flaky && pacer;
  }();
  ASSERT_TRUE(registered);
  g_flaky_factory_calls.store(0);

  tsdata::Repository repo = MakeRepo();
  ASSERT_GE(repo.size(), 4u);

  pipeline::BenchmarkConfig config = SingleMethodConfig("halfopen_flaky");
  config.methods.push_back(
      pipeline::MethodSpec{"halfopen_pacer", Json::Object()});
  config.breaker_threshold = 2;
  config.breaker_cooldown_ms = 20.0;  // < the pacer's 30ms Fit sleep

  // Tasks are dataset-major, so pairs alternate flaky/pacer. One thread
  // forces a strictly sequential run with deterministic order.
  config.num_threads = 1;
  auto report = pipeline::PipelineRunner(&repo, config).Run();
  ASSERT_TRUE(report.ok());

  size_t flaky_ok = 0, flaky_failed = 0, flaky_skipped = 0, pacer_ok = 0;
  for (const auto& rec : report->records) {
    if (rec.method == "halfopen_pacer") {
      if (rec.status.ok()) ++pacer_ok;
      continue;
    }
    if (rec.status.ok()) {
      ++flaky_ok;
    } else if (rec.status.IsUnavailable()) {
      ++flaky_skipped;
    } else {
      ++flaky_failed;
    }
  }
  EXPECT_EQ(flaky_failed, 2u) << "exactly the two injected factory failures";
  EXPECT_EQ(flaky_skipped, 0u)
      << "the half-open probe must reclose the breaker before any skip";
  EXPECT_EQ(flaky_ok, repo.size() - 2);
  EXPECT_EQ(pacer_ok, repo.size());
}

TEST(RobustnessTest, BreakerCooldownSurvivesConfigRoundTrip) {
  auto j = Json::Parse(R"({"breaker_cooldown_ms": 250.0})");
  ASSERT_TRUE(j.ok());
  auto config = pipeline::BenchmarkConfig::FromJson(*j);
  ASSERT_TRUE(config.ok());
  EXPECT_DOUBLE_EQ(config->breaker_cooldown_ms, 250.0);
  EXPECT_DOUBLE_EQ(config->ToJson().GetDouble("breaker_cooldown_ms", -1.0),
                   250.0);

  auto dflt = pipeline::BenchmarkConfig::FromJson(Json::Object());
  ASSERT_TRUE(dflt.ok());
  EXPECT_DOUBLE_EQ(dflt->breaker_cooldown_ms, 0.0);

  auto bad = Json::Parse(R"({"breaker_cooldown_ms": -5.0})");
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(pipeline::BenchmarkConfig::FromJson(*bad).ok());
}

// --------------------------------------------------------- Serving fixtures

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

class RobustnessServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { system_ = MakeSystem(); }
  static void TearDownTestSuite() {
    delete system_;
    system_ = nullptr;
  }
  void SetUp() override {
    ASSERT_NE(system_, nullptr);
    FaultRegistry::Global().DisarmAll();
    FaultRegistry::Global().Reseed(42);
  }
  void TearDown() override { FaultRegistry::Global().DisarmAll(); }
  static core::EasyTime* system_;
};

core::EasyTime* RobustnessServeTest::system_ = nullptr;

TEST_F(RobustnessServeTest, RequestDeadlineExpiredInQueueReturnsDeadline) {
  serve::ForecastServer::Options opt;
  opt.fast_lane_workers = 1;  // one slow request blocks the lane
  opt.cache_capacity = 0;
  serve::ForecastServer server(system_, opt);
  server.Start();
  const std::string dataset = system_->repository()->names()[0];

  // Occupy the only worker for ~300ms.
  std::thread blocker([&]() {
    Json params = Json::Object();
    params.Set("dataset", dataset);
    params.Set("method", "naive");
    params.Set("horizon", static_cast<int64_t>(2));
    params.Set("sleep_ms", 300.0);
    auto r = server.Call("forecast", params);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  });
  std::this_thread::sleep_for(50ms);

  // This request's 40ms budget dies in the queue behind the blocker.
  Json params = Json::Object();
  params.Set("dataset", dataset);
  params.Set("method", "naive");
  params.Set("horizon", static_cast<int64_t>(2));
  params.Set("deadline_ms", 40.0);
  auto r = server.Call("forecast", params);
  blocker.join();
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsDeadlineExceeded()) << r.status().ToString();

  // A comfortable deadline passes untouched.
  params.Set("deadline_ms", 60000.0);
  auto ok = server.Call("forecast", params);
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
  server.Stop();
}

TEST_F(RobustnessServeTest, NonPositiveDeadlineIsRejected) {
  serve::ForecastServer server(system_);
  server.Start();
  Json params = Json::Object();
  params.Set("dataset", system_->repository()->names()[0]);
  params.Set("method", "naive");
  params.Set("deadline_ms", -5.0);
  auto r = server.Call("forecast", params);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
  server.Stop();
}

TEST_F(RobustnessServeTest, EvaluateJobHonorsDeadline) {
  serve::ForecastServer server(system_);
  server.Start();
  auto cfg = Json::Parse(R"({
    "methods": ["theta", "ses", "drift"],
    "evaluation": {"strategy": "rolling", "horizon": 8, "metrics": ["mae"]},
    "num_threads": 1,
    "deadline_ms": 1.0
  })");
  ASSERT_TRUE(cfg.ok());
  auto submitted = server.Call("evaluate", *cfg);
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();

  Json poll = Json::Object();
  poll.Set("job", submitted->GetInt("job", -1));
  std::string state = "queued";
  Json status;
  for (int i = 0; i < 600 && (state == "queued" || state == "running"); ++i) {
    auto s = server.Call("job_status", poll);
    ASSERT_TRUE(s.ok());
    status = *s;
    state = status.GetString("state", "");
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_EQ(state, "failed");
  EXPECT_NE(status.GetString("error", "").find("Deadline exceeded"),
            std::string::npos);
  server.Stop();
}

TEST_F(RobustnessServeTest, CallWithRetryRidesOutTransientFaults) {
  serve::ForecastServer server(system_);
  server.Start();

  // The first two dispatches fail Unavailable; the third succeeds.
  FaultSpec spec;
  spec.kind = FaultKind::kError;
  spec.code = StatusCode::kUnavailable;
  spec.max_triggers = 2;
  ASSERT_TRUE(FaultRegistry::Global().Arm("serve.dispatch", spec).ok());

  Json params = Json::Object();
  params.Set("dataset", system_->repository()->names()[0]);
  params.Set("method", "naive");
  params.Set("horizon", static_cast<int64_t>(4));

  serve::RetryPolicy policy;
  policy.max_attempts = 4;
  policy.base_delay_ms = 1.0;
  policy.seed = 5;
  auto r = server.CallWithRetry("forecast", params, policy);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->Get("values").size(), 4u);

  // Plain Call (no retry) with the same fault budget fails immediately.
  FaultRegistry::Global().DisarmAll();
  spec.max_triggers = 1;
  ASSERT_TRUE(FaultRegistry::Global().Arm("serve.dispatch", spec).ok());
  auto plain = server.Call("forecast", params);
  EXPECT_TRUE(plain.status().IsUnavailable());
  server.Stop();
}

TEST_F(RobustnessServeTest, RecommendDegradesToGlobalRankingOnFailure) {
  serve::ForecastServer::Options opt;
  opt.cache_capacity = 0;  // keep injected failures from being masked
  serve::ForecastServer server(system_, opt);
  server.Start();

  Json params = Json::Object();
  params.Set("dataset", system_->repository()->names()[0]);
  params.Set("k", static_cast<int64_t>(3));

  // Healthy path first: not degraded.
  auto healthy = server.Call("recommend", params);
  ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();
  EXPECT_FALSE(healthy->GetBool("degraded", false));

  // Break the classifier path; the endpoint must still answer, flagged.
  FaultSpec spec;
  spec.kind = FaultKind::kError;
  spec.code = StatusCode::kInternal;
  ASSERT_TRUE(FaultRegistry::Global().Arm("ensemble.recommend", spec).ok());
  auto degraded = server.Call("recommend", params);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_TRUE(degraded->GetBool("degraded", false));
  const Json& recs = degraded->Get("recommendations");
  ASSERT_EQ(recs.size(), 3u);
  for (const auto& item : recs.items()) {
    EXPECT_FALSE(item.GetString("method", "").empty());
  }
  server.Stop();
}

TEST_F(RobustnessServeTest, JobKeyIsStableAndOverridable) {
  auto cfg1 = Json::Parse(R"({"methods": ["naive"], "num_threads": 1})");
  auto cfg2 = Json::Parse(R"({"num_threads": 1, "methods": ["naive"]})");
  ASSERT_TRUE(cfg1.ok() && cfg2.ok());
  // Key order doesn't matter: canonicalization makes the derived key stable.
  EXPECT_EQ(serve::JobManager::JobKey(*cfg1), serve::JobManager::JobKey(*cfg2));

  auto named = Json::Parse(R"({"methods": ["naive"], "job_key": "nightly"})");
  ASSERT_TRUE(named.ok());
  EXPECT_EQ(serve::JobManager::JobKey(*named), "nightly");
}

}  // namespace
}  // namespace easytime
