// Streaming-ingestion tests (ISSUE 9 tentpole): the "append" serve endpoint
// and the facade's AppendObservations underneath it — validation and
// at-most-once semantics, per-dataset data versions, amortized
// characteristics refresh, fine-grained cache invalidation (append to A
// must not evict B), durability across restarts and a fork+SIGKILL mid-
// append, a TSan-able append/forecast race, a malformed-append fuzz sweep,
// and the "backtest" async job built on top of the appended data
// (completion, endpoint/type conflicts, checkpoint resume).

#include "serve/server.h"

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "core/easytime.h"
#include "eval/backtest.h"
#include "kill_test_util.h"
#include "serve/job_manager.h"
#include "store/record_store.h"
#include "tsdata/append_log.h"
#include "tsdata/generator.h"
#include "tsdata/repository.h"

namespace easytime::serve {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

std::string TestDir(const std::string& name) {
  fs::path dir = fs::temp_directory_path() /
                 ("easytime_streaming_" + name + "_" +
                  std::to_string(::getpid()));
  fs::remove_all(dir);
  return dir.string();
}

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

/// Shared system + server for the in-memory streaming tests. Each TEST runs
/// in its own process (gtest_discover_tests), so every test sees a freshly
/// seeded suite — append side effects never leak between tests.
class StreamingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto system = core::EasyTime::Create(SmallSystemOptions());
    ASSERT_TRUE(system.ok()) << system.status().ToString();
    system_ = system->release();
    server_ = new ForecastServer(system_);
    server_->Start();
  }
  static void TearDownTestSuite() {
    delete server_;
    server_ = nullptr;
    delete system_;
    system_ = nullptr;
  }

  static std::string FirstDataset() {
    return system_->repository()->names()[0];
  }
  static std::string SecondDataset() {
    return system_->repository()->names()[1];
  }

  static size_t Length(const std::string& dataset) {
    auto snap = system_->SeriesSnapshot(dataset);
    EXPECT_TRUE(snap.ok()) << snap.status().ToString();
    return snap.ok() ? snap->length() : 0;
  }

  /// One append batch as the serve endpoint sees it.
  static Json AppendParams(const std::string& dataset,
                           const std::vector<double>& values) {
    Json params = Json::Object();
    params.Set("dataset", dataset);
    Json arr = Json::Array();
    for (double v : values) arr.Append(v);
    params.Set("values", std::move(arr));
    return params;
  }

  static Json ForecastParams(const std::string& dataset) {
    Json params = Json::Object();
    params.Set("dataset", dataset);
    params.Set("method", "ses");
    params.Set("horizon", static_cast<int64_t>(6));
    return params;
  }

  /// Forecasts via HandleLine so the envelope's "cached" flag is visible.
  static Json ForecastEnvelope(const std::string& dataset, int64_t id) {
    Json req = Json::Object();
    req.Set("id", id);
    req.Set("endpoint", "forecast");
    req.Set("params", ForecastParams(dataset));
    auto resp = Json::Parse(server_->HandleLine(req.Dump()));
    EXPECT_TRUE(resp.ok()) << resp.status().ToString();
    return resp.ok() ? std::move(*resp) : Json::Object();
  }

  static core::EasyTime* system_;
  static ForecastServer* server_;
};

core::EasyTime* StreamingTest::system_ = nullptr;
ForecastServer* StreamingTest::server_ = nullptr;

// ---------------------------------------------------------------------------
// Facade append: outcomes, validation, at-most-once
// ---------------------------------------------------------------------------

using StreamingAppendTest = StreamingTest;

TEST_F(StreamingAppendTest, AppendGrowsSeriesAndReportsOutcome) {
  const std::string name = FirstDataset();
  const size_t before = Length(name);

  auto outcome =
      system_->AppendObservations(name, {{1.5, 2.5, 3.5, 4.5, 5.5}});
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->appended, 5u);
  EXPECT_EQ(outcome->length, before + 5);
  EXPECT_GE(outcome->data_version, 1u);

  auto snap = system_->SeriesSnapshot(name);
  ASSERT_TRUE(snap.ok());
  ASSERT_EQ(snap->length(), before + 5);
  EXPECT_DOUBLE_EQ(snap->values()[before + 0], 1.5);
  EXPECT_DOUBLE_EQ(snap->values()[before + 4], 5.5);
}

TEST_F(StreamingAppendTest, AppendRejectsMalformedBatches) {
  const std::string name = FirstDataset();
  const size_t before = Length(name);

  auto empty = system_->AppendObservations(name, {});
  EXPECT_TRUE(empty.status().IsInvalidArgument());

  auto empty_channel = system_->AppendObservations(name, {{}});
  EXPECT_TRUE(empty_channel.status().IsInvalidArgument());

  auto ragged = system_->AppendObservations(name, {{1.0, 2.0}, {3.0}});
  EXPECT_TRUE(ragged.status().IsInvalidArgument());
  EXPECT_NE(ragged.status().message().find("unequal"), std::string::npos);

  auto non_finite = system_->AppendObservations(
      name, {{1.0, std::numeric_limits<double>::quiet_NaN()}});
  EXPECT_TRUE(non_finite.status().IsInvalidArgument());
  EXPECT_NE(non_finite.status().message().find("finite"), std::string::npos);

  auto unknown = system_->AppendObservations("no_such_series", {{1.0}});
  EXPECT_TRUE(unknown.status().IsNotFound());

  // Nothing above may have touched the series.
  EXPECT_EQ(Length(name), before);
}

TEST_F(StreamingAppendTest, ExpectedStartGivesAtMostOnceSemantics) {
  const std::string name = FirstDataset();
  const size_t n = Length(name);

  // A retry carrying an already-ingested offset is a duplicate.
  auto dup = system_->AppendObservations(name, {{9.0}}, n - 1);
  EXPECT_TRUE(dup.status().IsInvalidArgument());
  EXPECT_NE(dup.status().message().find("duplicate append"),
            std::string::npos);

  // An offset beyond the end would leave a gap.
  auto gap = system_->AppendObservations(name, {{9.0}}, n + 3);
  EXPECT_TRUE(gap.status().IsInvalidArgument());
  EXPECT_NE(gap.status().message().find("out-of-order append"),
            std::string::npos);

  EXPECT_EQ(Length(name), n);

  // The exact next offset is accepted, exactly once.
  auto ok = system_->AppendObservations(name, {{9.0, 10.0}}, n);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->length, n + 2);
  auto replay = system_->AppendObservations(name, {{9.0, 10.0}}, n);
  EXPECT_TRUE(replay.status().IsInvalidArgument());
  EXPECT_EQ(Length(name), n + 2);
}

TEST_F(StreamingAppendTest, DataVersionsArePerDataset) {
  const std::string a = FirstDataset();
  const std::string b = SecondDataset();
  const auto& kb = system_->knowledge();
  const uint64_t b_before = kb.DataVersion(b);

  auto first = system_->AppendObservations(a, {{1.0, 2.0}});
  ASSERT_TRUE(first.ok());
  auto second = system_->AppendObservations(a, {{3.0}});
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->data_version, first->data_version + 1);
  EXPECT_EQ(kb.DataVersion(a), second->data_version);

  // B's version never moved: append isolation is per dataset.
  EXPECT_EQ(kb.DataVersion(b), b_before);
}

TEST_F(StreamingAppendTest, CharacteristicsRefreshIsAmortized) {
  const std::string name = FirstDataset();

  // A batch that clears the max(32, 10%) margin must re-profile...
  std::vector<double> big(Length(name) / 10 + 33, 1.0);
  auto refresh = system_->AppendObservations(name, {big});
  ASSERT_TRUE(refresh.ok()) << refresh.status().ToString();
  EXPECT_TRUE(refresh->characteristics_refreshed);

  // ...and a small follow-up right after must not (O(n) work stays
  // amortized to O(1) per appended point).
  auto small = system_->AppendObservations(name, {{1.0, 2.0, 3.0}});
  ASSERT_TRUE(small.ok());
  EXPECT_FALSE(small->characteristics_refreshed);
}

TEST_F(StreamingAppendTest, ReadsDoNotBumpKnowledgeVersion) {
  const std::string name = FirstDataset();
  const uint64_t before = system_->knowledge().version();

  ASSERT_TRUE(system_->Recommend(name, 2).ok());
  ASSERT_TRUE(system_->SeriesSnapshot(name).ok());
  ASSERT_TRUE(server_->Call("forecast", ForecastParams(name)).ok());

  // The version counter is observational: reads leave it untouched, so it
  // can no longer be (ab)used to invalidate caches on every query.
  EXPECT_EQ(system_->knowledge().version(), before);

  auto outcome = system_->AppendObservations(name, {{4.0, 5.0}});
  ASSERT_TRUE(outcome.ok());
  EXPECT_GT(system_->knowledge().version(), before)
      << "a data mutation is a real KB change and must bump the version";
}

// ---------------------------------------------------------------------------
// Serve endpoint + fine-grained cache invalidation
// ---------------------------------------------------------------------------

using StreamingCacheTest = StreamingTest;

TEST_F(StreamingCacheTest, AppendInvalidatesOnlyTheTouchedDataset) {
  ASSERT_GE(system_->repository()->names().size(), 2u);
  const std::string a = FirstDataset();
  const std::string b = SecondDataset();

  // Warm both datasets' forecast entries.
  ASSERT_TRUE(ForecastEnvelope(a, 10).GetBool("ok", false));
  ASSERT_TRUE(ForecastEnvelope(b, 11).GetBool("ok", false));
  EXPECT_TRUE(ForecastEnvelope(a, 12).GetBool("cached", false));
  EXPECT_TRUE(ForecastEnvelope(b, 13).GetBool("cached", false));

  const size_t before = Length(a);
  auto appended = server_->Call("append", AppendParams(a, {7.0, 8.0, 9.0}));
  ASSERT_TRUE(appended.ok()) << appended.status().ToString();
  EXPECT_EQ(appended->GetInt("appended", 0), 3);
  EXPECT_EQ(static_cast<size_t>(appended->GetInt("length", 0)), before + 3);
  EXPECT_GE(appended->GetInt("cache_invalidated", -1), 1);

  // A's entry fell out (it was computed on stale data)...
  Json a_after = ForecastEnvelope(a, 14);
  ASSERT_TRUE(a_after.GetBool("ok", false));
  EXPECT_FALSE(a_after.GetBool("cached", false));
  // ...while B — untouched by the append — still serves from cache.
  Json b_after = ForecastEnvelope(b, 15);
  ASSERT_TRUE(b_after.GetBool("ok", false));
  EXPECT_TRUE(b_after.GetBool("cached", false));

  Json cache = server_->StatsJson().Get("cache");
  EXPECT_GE(cache.GetInt("tag_invalidations", 0), 1);
}

TEST_F(StreamingCacheTest, FlushCacheIsTheEscapeHatch) {
  const std::string a = FirstDataset();
  ASSERT_TRUE(ForecastEnvelope(a, 20).GetBool("ok", false));
  EXPECT_TRUE(ForecastEnvelope(a, 21).GetBool("cached", false));

  auto flushed = server_->Call("flush_cache", Json::Object());
  ASSERT_TRUE(flushed.ok()) << flushed.status().ToString();
  EXPECT_GE(flushed->GetInt("flushed", 0), 1);

  Json after = ForecastEnvelope(a, 22);
  ASSERT_TRUE(after.GetBool("ok", false));
  EXPECT_FALSE(after.GetBool("cached", false));
  EXPECT_GE(server_->StatsJson().Get("cache").GetInt("flushes", 0), 1);
}

TEST_F(StreamingCacheTest, AppendEndpointValidatesItsEnvelope) {
  const std::string a = FirstDataset();
  const size_t before = Length(a);

  // No dataset.
  Json no_ds = Json::Object();
  Json vals = Json::Array();
  vals.Append(1.0);
  no_ds.Set("values", std::move(vals));
  EXPECT_TRUE(
      server_->Call("append", no_ds).status().IsInvalidArgument());

  // Type-confused values.
  Json bad_type = Json::Object();
  bad_type.Set("dataset", a);
  Json mixed = Json::Array();
  mixed.Append(1.0);
  mixed.Append("two");
  bad_type.Set("values", std::move(mixed));
  EXPECT_FALSE(server_->Call("append", bad_type).ok());

  // Fractional / negative start offsets.
  Json frac = AppendParams(a, {1.0});
  frac.Set("start", 1.5);
  EXPECT_TRUE(server_->Call("append", frac).status().IsInvalidArgument());
  Json neg = AppendParams(a, {1.0});
  neg.Set("start", static_cast<int64_t>(-4));
  EXPECT_TRUE(server_->Call("append", neg).status().IsInvalidArgument());

  EXPECT_EQ(Length(a), before);
}

// ---------------------------------------------------------------------------
// Concurrency: appends racing forecasts (exercised under TSan in CI)
// ---------------------------------------------------------------------------

using StreamingRaceTest = StreamingTest;

TEST_F(StreamingRaceTest, ConcurrentAppendsAndForecastsStayConsistent) {
  const std::string name = FirstDataset();
  const size_t initial = Length(name);
  constexpr int kAppenders = 2;
  constexpr int kBatches = 12;
  constexpr int kBatchSize = 3;

  std::atomic<size_t> appended_total{0};
  std::atomic<bool> readers_run{true};

  std::vector<std::thread> threads;
  for (int t = 0; t < kAppenders; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < kBatches; ++i) {
        std::vector<double> batch(kBatchSize, 100.0 + t * 1000 + i);
        auto result =
            server_->CallWithRetry("append", AppendParams(name, batch));
        if (result.ok()) {
          appended_total.fetch_add(kBatchSize);
        }
      }
    });
  }
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&]() {
      while (readers_run.load()) {
        // Concurrent readers must always see an internally consistent
        // series — never a torn length or mid-append values.
        auto fc =
            server_->CallWithRetry("forecast", ForecastParams(name));
        EXPECT_TRUE(fc.ok() || fc.status().code() != StatusCode::kInternal)
            << fc.status().ToString();
        auto snap = system_->SeriesSnapshot(name);
        ASSERT_TRUE(snap.ok());
        ASSERT_GE(snap->length(), initial);
      }
    });
  }
  for (auto& t : threads) t.join();
  readers_run.store(false);
  for (auto& t : readers) t.join();

  EXPECT_GT(appended_total.load(), 0u);
  EXPECT_EQ(Length(name), initial + appended_total.load());
}

// ---------------------------------------------------------------------------
// Fuzz: malformed append requests never corrupt state
// ---------------------------------------------------------------------------

using StreamingFuzzTest = StreamingTest;

TEST_F(StreamingFuzzTest, MalformedAppendsAreRejectedWithoutSideEffects) {
  const std::string a = FirstDataset();
  const size_t before = Length(a);
  std::mt19937_64 rng(20260808);
  auto pick = [&rng](int n) { return static_cast<int>(rng() % n); };

  for (int iter = 0; iter < 200; ++iter) {
    Json req = Json::Object();
    req.Set("id", static_cast<int64_t>(iter));
    req.Set("endpoint", "append");
    Json params = Json::Object();
    switch (pick(8)) {
      case 0:  // missing dataset
        params = AppendParams(a, {1.0});
        params.Set("dataset", "");
        break;
      case 1:  // unknown dataset
        params = AppendParams("fuzz_no_such_" + std::to_string(iter), {1.0});
        break;
      case 2: {  // values is not an array
        params.Set("dataset", a);
        params.Set("values", "not-an-array");
        break;
      }
      case 3: {  // empty values
        params.Set("dataset", a);
        params.Set("values", Json::Array());
        break;
      }
      case 4: {  // string smuggled into the numbers
        params = AppendParams(a, {1.0, 2.0});
        Json arr = Json::Array();
        arr.Append(1.0);
        arr.Append("NaN");
        params.Set("values", std::move(arr));
        break;
      }
      case 5: {  // ragged multivariate nesting
        params.Set("dataset", a);
        Json outer = Json::Array();
        Json c0 = Json::Array();
        c0.Append(1.0);
        c0.Append(2.0);
        Json c1 = Json::Array();
        c1.Append(3.0);
        outer.Append(std::move(c0));
        outer.Append(std::move(c1));
        params.Set("values", std::move(outer));
        break;
      }
      case 6: {  // start far beyond the series end (gap)
        params = AppendParams(a, {1.0});
        params.Set("start", static_cast<int64_t>(before + 100000 + iter));
        break;
      }
      default: {  // negative / fractional start
        params = AppendParams(a, {1.0});
        if (pick(2) == 0) {
          params.Set("start", static_cast<int64_t>(-1 - iter));
        } else {
          params.Set("start", 0.25 + iter);
        }
        break;
      }
    }
    req.Set("params", std::move(params));

    auto resp = Json::Parse(server_->HandleLine(req.Dump()));
    ASSERT_TRUE(resp.ok()) << "response must stay a well-formed envelope";
    ASSERT_TRUE(resp->is_object());
    EXPECT_FALSE(resp->GetBool("ok", true)) << "iter " << iter;
    EXPECT_FALSE(resp->Get("error").GetString("code", "").empty());
  }

  EXPECT_EQ(Length(a), before)
      << "no malformed request may have appended anything";
}

// ---------------------------------------------------------------------------
// Durability: restart recovery and fork+SIGKILL mid-append
// ---------------------------------------------------------------------------

TEST(StreamingDurabilityTest, AppendsSurviveFacadeRestart) {
  const std::string dir = TestDir("restart");
  core::EasyTime::Options opt = SmallSystemOptions();
  opt.store_dir = dir;

  std::string name;
  size_t grown = 0;
  {
    auto system = core::EasyTime::Create(opt);
    ASSERT_TRUE(system.ok()) << system.status().ToString();
    name = (*system)->repository()->names()[0];
    const size_t base = (*system)->SeriesSnapshot(name)->length();
    auto outcome = (*system)->AppendObservations(
        name, {{41.0, 42.0, 43.0, 44.0, 45.0, 46.0, 47.0}});
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    grown = base + 7;
    ASSERT_EQ(outcome->length, grown);
  }

  // Same directory, fresh process-equivalent: the appended tail must come
  // back, and the knowledge base's per-series metadata must match it.
  auto reopened = core::EasyTime::Create(opt);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE((*reopened)->restored_from_store());
  auto snap = (*reopened)->SeriesSnapshot(name);
  ASSERT_TRUE(snap.ok());
  ASSERT_EQ(snap->length(), grown);
  EXPECT_DOUBLE_EQ(snap->values()[grown - 1], 47.0);
  EXPECT_DOUBLE_EQ(snap->values()[grown - 7], 41.0);

  auto meta = (*reopened)->knowledge().GetDataset(name);
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ((*meta)->length, grown)
      << "restart must re-sync KB metadata with the replayed series";

  fs::remove_all(dir);
}

TEST(StreamingDurabilityTest, KillMidAppendKeepsAcknowledgedBatchesOnly) {
  const std::string dir = TestDir("kill");
  constexpr size_t kBase = 64;
  constexpr size_t kBatch = 3;

  auto make_repo = [] {
    tsdata::Repository repo;
    tsdata::Dataset ds("stream");
    std::vector<double> base(kBase);
    for (size_t i = 0; i < kBase; ++i) base[i] = static_cast<double>(i);
    EXPECT_TRUE(ds.AddChannel(tsdata::Series("stream", base)).ok());
    EXPECT_TRUE(repo.Add(std::move(ds)).ok());
    return repo;
  };

  // The child signals its first acknowledged batch and only then does the
  // kill timer start: a slow fsync must not leave the kill window empty.
  easytime::testutil::FirstAckPipe ack;
  ASSERT_TRUE(ack.ok());
  pid_t pid = fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    // Child: fsync-per-append writer; every acknowledged batch is durable
    // before the next starts. Killed mid-stream by the parent.
    tsdata::Repository repo = make_repo();
    tsdata::AppendLogOptions opt;
    opt.dir = dir;
    opt.compact_every = 8;  // exercise compaction under fire too
    auto log = tsdata::AppendLog::Open(opt, &repo, nullptr);
    if (!log.ok()) _exit(1);
    auto* ds = *repo.GetMutable("stream");
    for (size_t start = kBase;; start += kBatch) {
      tsdata::AppendRecord rec;
      rec.dataset = "stream";
      rec.start = start;
      rec.channels.push_back({static_cast<double>(start),
                              static_cast<double>(start + 1),
                              static_cast<double>(start + 2)});
      if (!(*log)->Append(rec).ok()) _exit(2);
      ack.Acked();
      if (!ds->AppendObservations(rec.channels).ok()) _exit(3);
    }
  }
  const bool acked = ack.WaitForFirstAck(30s);
  if (acked) std::this_thread::sleep_for(250ms);
  ASSERT_EQ(kill(pid, SIGKILL), 0);
  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(acked) << "the writer acked no batch";
  ASSERT_TRUE(WIFSIGNALED(wstatus));

  // Recovery: replay onto a fresh base repository. The series must be a
  // contiguous prefix of whole batches — a torn tail record truncates to
  // the last acknowledged append, never to a torn series.
  tsdata::Repository repo = make_repo();
  tsdata::AppendLog::ReplayStats stats;
  tsdata::AppendLogOptions opt;
  opt.dir = dir;
  auto log = tsdata::AppendLog::Open(opt, &repo, &stats);
  ASSERT_TRUE(log.ok()) << log.status().ToString();

  const auto* ds = *repo.Get("stream");
  const size_t len = ds->length();
  ASSERT_GT(len, kBase) << "250ms of fsynced appends must survive";
  ASSERT_EQ((len - kBase) % kBatch, 0u)
      << "recovery must never surface a torn (partial) batch";
  const auto& values = ds->channel(0).values();
  for (size_t i = kBase; i < len; ++i) {
    ASSERT_DOUBLE_EQ(values[i], static_cast<double>(i))
        << "replayed batch values must be intact and in order";
  }

  // The log keeps working after crash recovery.
  tsdata::AppendRecord rec;
  rec.dataset = "stream";
  rec.start = len;
  rec.channels.push_back({static_cast<double>(len)});
  EXPECT_TRUE((*log)->Append(rec).ok());
  fs::remove_all(dir);
}

// A refused append must leave no trace: the log takes the batch back out of
// the dataset's tail, so the caller can retry at the same start, and a
// compaction triggered by another dataset's appends cannot snapshot the
// refused values into a state a restart would replay. The converse holds
// too: a durable append is acked even when the compaction after it fails.
TEST(StreamingRollbackTest, RefusedAppendIsNeitherBlockingNorResurrected) {
  const std::string dir = TestDir("rollback");
  constexpr size_t kBase = 8;
  auto make_repo = [] {
    tsdata::Repository repo;
    for (const char* name : {"a", "b"}) {
      tsdata::Dataset ds(name);
      std::vector<double> base(kBase);
      for (size_t i = 0; i < kBase; ++i) base[i] = static_cast<double>(i);
      EXPECT_TRUE(ds.AddChannel(tsdata::Series(name, base)).ok());
      EXPECT_TRUE(repo.Add(std::move(ds)).ok());
    }
    return repo;
  };
  auto record = [](const std::string& dataset, size_t start, double v) {
    tsdata::AppendRecord rec;
    rec.dataset = dataset;
    rec.start = start;
    rec.channels.push_back({v});
    return rec;
  };
  tsdata::AppendLogOptions opt;
  opt.dir = dir;
  opt.compact_every = 2;
  FaultRegistry::Global().DisarmAll();
  {
    tsdata::Repository repo = make_repo();
    auto log = tsdata::AppendLog::Open(opt, &repo, nullptr);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    FaultSpec refuse;
    refuse.kind = FaultKind::kError;
    refuse.code = StatusCode::kIOError;
    refuse.max_triggers = 1;
    ASSERT_TRUE(FaultRegistry::Global().Arm("store.append", refuse).ok());
    EXPECT_EQ((*log)->Append(record("a", kBase, 99.0)).code(),
              StatusCode::kIOError);
    FaultRegistry::Global().DisarmAll();
    // Three appends to b compact the tails, a's included. The first
    // compaction fails; that must not refuse the durable append behind it.
    FaultSpec no_snapshot = refuse;
    ASSERT_TRUE(
        FaultRegistry::Global().Arm("store.snapshot", no_snapshot).ok());
    for (size_t i = 0; i < 3; ++i) {
      easytime::Status st = (*log)->Append(record("b", kBase + i, 50.0 + i));
      ASSERT_TRUE(st.ok()) << "append " << i << ": " << st.ToString();
    }
    EXPECT_EQ(FaultRegistry::Global().PointStats("store.snapshot").triggers,
              1u);
    FaultRegistry::Global().DisarmAll();
  }
  {
    tsdata::Repository repo = make_repo();
    auto log = tsdata::AppendLog::Open(opt, &repo, nullptr);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    EXPECT_EQ((*repo.Get("a"))->length(), kBase)
        << "the refused append came back after a restart";
    EXPECT_EQ((*repo.Get("b"))->length(), kBase + 3);
    // The retry at the same start is accepted.
    easytime::Status retried = (*log)->Append(record("a", kBase, 7.0));
    ASSERT_TRUE(retried.ok()) << retried.ToString();
  }
  tsdata::Repository repo = make_repo();
  auto log = tsdata::AppendLog::Open(opt, &repo, nullptr);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  const auto* a = *repo.Get("a");
  ASSERT_EQ(a->length(), kBase + 1);
  EXPECT_EQ(a->channel(0).values()[kBase], 7.0);
  fs::remove_all(dir);
}

// Appenders on distinct datasets, compacting every few records: compactions
// overlap each other and other appenders' records. Every append must be
// acknowledged, and each reopen must replay every acknowledged point
// exactly once, in order. Appenders run until a shared stop, so the last
// compaction of a round usually races other appenders' records too.
TEST(StreamingCompactionStressTest, ConcurrentAppendersReplayEveryAckedPointOnce) {
  const std::string dir = TestDir("compaction");
  constexpr int kDatasets = 4;
  constexpr int kRounds = 6;
  constexpr size_t kBase = 16;
  constexpr size_t kBatch = 2;
  // Point i of dataset d holds d * 1e6 + i, so a lost, doubled or misplaced
  // point shows up as a wrong value or length.
  auto value = [](int d, size_t i) {
    return static_cast<double>(d) * 1e6 + static_cast<double>(i);
  };
  auto name = [](int d) { return "s" + std::to_string(d); };
  auto make_repo = [&] {
    tsdata::Repository repo;
    for (int d = 0; d < kDatasets; ++d) {
      tsdata::Dataset ds(name(d));
      std::vector<double> base(kBase);
      for (size_t i = 0; i < kBase; ++i) base[i] = value(d, i);
      EXPECT_TRUE(ds.AddChannel(tsdata::Series(name(d), base)).ok());
      EXPECT_TRUE(repo.Add(std::move(ds)).ok());
    }
    return repo;
  };

  tsdata::AppendLogOptions opt;
  opt.dir = dir;
  opt.compact_every = 3;
  std::vector<size_t> acked(kDatasets, kBase);  // acknowledged length
  for (int round = 0; round <= kRounds; ++round) {
    tsdata::Repository repo = make_repo();
    auto log = tsdata::AppendLog::Open(opt, &repo, nullptr);
    ASSERT_TRUE(log.ok()) << "round " << round << ": "
                          << log.status().ToString();
    for (int d = 0; d < kDatasets; ++d) {
      const auto* ds = *repo.Get(name(d));
      ASSERT_EQ(ds->length(), acked[d]) << "round " << round << " " << name(d);
      const auto& values = ds->channel(0).values();
      for (size_t i = 0; i < values.size(); ++i) {
        ASSERT_EQ(values[i], value(d, i))
            << "round " << round << " " << name(d) << " point " << i;
      }
    }
    if (round == kRounds) break;

    std::atomic<bool> stop{false};
    std::atomic<int> failures{0};
    std::string first_error;
    std::mutex error_mu;
    std::vector<std::thread> appenders;
    for (int d = 0; d < kDatasets; ++d) {
      appenders.emplace_back([&, d]() {
        while (!stop.load()) {
          tsdata::AppendRecord rec;
          rec.dataset = name(d);
          rec.start = acked[d];
          rec.channels.push_back(
              {value(d, rec.start), value(d, rec.start + 1)});
          easytime::Status st = (*log)->Append(rec);
          if (!st.ok()) {
            if (failures.fetch_add(1) == 0) {
              std::lock_guard<std::mutex> lock(error_mu);
              first_error = st.ToString();
            }
            return;
          }
          acked[d] += kBatch;
        }
      });
    }
    std::this_thread::sleep_for(30ms);
    stop.store(true);
    for (auto& t : appenders) t.join();
    ASSERT_EQ(failures.load(), 0) << "round " << round << ": " << first_error;
  }
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// The "backtest" async job
// ---------------------------------------------------------------------------

using BacktestJobTest = StreamingTest;

Json BacktestParams(const std::string& dataset) {
  Json params = Json::Object();
  params.Set("dataset", dataset);
  params.Set("method", "theta");
  params.Set("origins", static_cast<int64_t>(4));
  params.Set("horizon", static_cast<int64_t>(8));
  return params;
}

/// Polls job_status until a terminal state (or ~12s), returning the final
/// status payload.
Json AwaitJob(ForecastServer* server, int64_t job) {
  Json poll = Json::Object();
  poll.Set("job", job);
  for (int i = 0; i < 600; ++i) {
    auto status = server->Call("job_status", poll);
    EXPECT_TRUE(status.ok()) << status.status().ToString();
    if (!status.ok()) return Json::Object();
    std::string state = status->GetString("state", "");
    if (state == "done" || state == "failed" || state == "cancelled") {
      return std::move(*status);
    }
    std::this_thread::sleep_for(20ms);
  }
  ADD_FAILURE() << "job " << job << " never reached a terminal state";
  return Json::Object();
}

TEST_F(BacktestJobTest, BacktestJobRunsToCompletion) {
  const std::string name = FirstDataset();
  auto submitted = server_->Call("backtest", BacktestParams(name));
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  int64_t job = submitted->GetInt("job", -1);
  ASSERT_GE(job, 0);

  Json status = AwaitJob(server_, job);
  ASSERT_EQ(status.GetString("state", ""), "done");
  EXPECT_EQ(status.GetInt("done", -1), 4);
  EXPECT_EQ(status.GetInt("total", -1), 4);

  Json result = status.Get("result");
  EXPECT_EQ(result.GetString("dataset", ""), name);
  ASSERT_EQ(result.Get("origins").size(), 4u);
  Json agg = result.Get("aggregate");
  EXPECT_TRUE(agg.Has("mase"));
  EXPECT_TRUE(agg.Has("smape"));
  EXPECT_GT(agg.GetDouble("mae", -1.0), 0.0);
  EXPECT_GE(result.GetDouble("coverage", -1.0), 0.0);
  EXPECT_LE(result.GetDouble("coverage", 2.0), 1.0);
}

TEST_F(BacktestJobTest, EndpointAndExplicitTypeMustAgree) {
  Json cross = BacktestParams(FirstDataset());
  cross.Set("type", "evaluate");
  auto conflicted = server_->Call("backtest", cross);
  EXPECT_TRUE(conflicted.status().IsInvalidArgument())
      << conflicted.status().ToString();

  Json cross2 = Json::Object();
  cross2.Set("type", "backtest");
  Json methods = Json::Array();
  methods.Append("drift");
  cross2.Set("methods", std::move(methods));
  EXPECT_TRUE(
      server_->Call("evaluate", cross2).status().IsInvalidArgument());
}

TEST_F(BacktestJobTest, UnknownDatasetFailsTheJob) {
  auto submitted =
      server_->Call("backtest", BacktestParams("no_such_dataset"));
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  Json status = AwaitJob(server_, submitted->GetInt("job", -1));
  EXPECT_EQ(status.GetString("state", ""), "failed");
  EXPECT_FALSE(status.GetString("error", "").empty());
}

TEST_F(BacktestJobTest, ResumesFromCheckpointedOrigins) {
  const std::string ckpt_dir = TestDir("bt_resume");
  const std::string name = FirstDataset();

  Json config = BacktestParams(name);
  config.Set("type", "backtest");
  config.Set("job_key", "bt-resume");

  // Reference run, strictly sequential, straight through the engine.
  auto bt_config = eval::BacktestConfig::FromJson(config);
  ASSERT_TRUE(bt_config.ok()) << bt_config.status().ToString();
  auto snap = system_->SeriesSnapshot(name);
  ASSERT_TRUE(snap.ok());
  eval::BacktestHooks seq;
  seq.max_threads = 1;
  auto reference =
      eval::RunBacktest(snap->values(), snap->period_hint(), *bt_config, seq);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_EQ(reference->origins.size(), 4u);

  JobManager::Options jm_opt;
  jm_opt.checkpoint_dir = ckpt_dir;
  JobManager jobs(system_, jm_opt);

  // Seed the checkpoint store with two finished origins, exactly as a
  // killed run would have left them (WAL records of OriginEval JSON).
  const std::string ckpt_path = jobs.CheckpointPath("bt-resume");
  ASSERT_FALSE(ckpt_path.empty());
  {
    auto store = store::RecordStore::Open(
        ckpt_path, store::RecordStoreOptions{}, nullptr);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE((*store)->Append(reference->origins[0].ToJson().Dump()).ok());
    ASSERT_TRUE((*store)->Append(reference->origins[2].ToJson().Dump()).ok());
    ASSERT_TRUE((*store)->Sync().ok());
  }

  jobs.Start();
  auto job_id = jobs.Submit(config);
  ASSERT_TRUE(job_id.ok()) << job_id.status().ToString();
  Json status = Json::Object();
  for (int i = 0; i < 600; ++i) {
    auto s = jobs.StatusJson(*job_id);
    ASSERT_TRUE(s.ok());
    status = std::move(*s);
    std::string state = status.GetString("state", "");
    if (state == "done" || state == "failed" || state == "cancelled") break;
    std::this_thread::sleep_for(20ms);
  }
  ASSERT_EQ(status.GetString("state", ""), "done") << status.Dump();

  Json result = status.Get("result");
  EXPECT_EQ(result.GetInt("resumed", -1), 2)
      << "origins 0 and 2 must be spliced in, not re-run";
  EXPECT_EQ(jobs.stats().resumed_records, 2u);

  // The spliced report must agree with the straight-through run (resumed
  // origins round-trip through JSON, so compare to near-exact tolerance).
  EXPECT_NEAR(result.Get("aggregate").GetDouble("mase", -1.0),
              reference->aggregate.at("mase"), 1e-9);
  EXPECT_NEAR(result.GetDouble("coverage", -1.0), reference->coverage, 1e-9);

  // A completed job removes its checkpoint; nothing to resume next time.
  EXPECT_FALSE(fs::exists(ckpt_path));

  jobs.Shutdown();
  fs::remove_all(ckpt_dir);
}

// A compacted backtest checkpoint resumes from its snapshot ({"origins":
// [...]}) and its WAL tail together.
TEST_F(BacktestJobTest, ResumesFromACompactedCheckpoint) {
  const std::string ckpt_dir = TestDir("bt_compacted");
  const std::string name = FirstDataset();

  Json config = BacktestParams(name);
  config.Set("type", "backtest");
  config.Set("job_key", "bt-compacted");

  auto bt_config = eval::BacktestConfig::FromJson(config);
  ASSERT_TRUE(bt_config.ok()) << bt_config.status().ToString();
  auto snap = system_->SeriesSnapshot(name);
  ASSERT_TRUE(snap.ok());
  eval::BacktestHooks seq;
  seq.max_threads = 1;
  auto reference =
      eval::RunBacktest(snap->values(), snap->period_hint(), *bt_config, seq);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_EQ(reference->origins.size(), 4u);

  JobManager::Options jm_opt;
  jm_opt.checkpoint_dir = ckpt_dir;
  JobManager jobs(system_, jm_opt);
  const std::string ckpt_path = jobs.CheckpointPath("bt-compacted");
  ASSERT_FALSE(ckpt_path.empty());
  {
    auto store = store::RecordStore::Open(
        ckpt_path, store::RecordStoreOptions{}, nullptr);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    Json origins = Json::Array();
    for (size_t i : {0, 1}) {
      Json doc = reference->origins[i].ToJson();
      ASSERT_TRUE((*store)->Append(doc.Dump()).ok());
      origins.Append(std::move(doc));
    }
    Json snapshot = Json::Object();
    snapshot.Set("origins", std::move(origins));
    ASSERT_TRUE((*store)->Compact(snapshot.Dump()).ok());
    ASSERT_TRUE((*store)->Append(reference->origins[3].ToJson().Dump()).ok());
    ASSERT_TRUE((*store)->Sync().ok());
  }

  jobs.Start();
  auto job_id = jobs.Submit(config);
  ASSERT_TRUE(job_id.ok()) << job_id.status().ToString();
  Json status = Json::Object();
  for (int i = 0; i < 600; ++i) {
    auto s = jobs.StatusJson(*job_id);
    ASSERT_TRUE(s.ok());
    status = std::move(*s);
    std::string state = status.GetString("state", "");
    if (state == "done" || state == "failed" || state == "cancelled") break;
    std::this_thread::sleep_for(20ms);
  }
  ASSERT_EQ(status.GetString("state", ""), "done") << status.Dump();

  Json result = status.Get("result");
  EXPECT_EQ(result.GetInt("resumed", -1), 3)
      << "origins 0 and 1 (snapshot) and 3 (WAL) must be spliced in";
  EXPECT_EQ(jobs.stats().resumed_records, 3u);
  EXPECT_NEAR(result.Get("aggregate").GetDouble("mase", -1.0),
              reference->aggregate.at("mase"), 1e-9);
  EXPECT_FALSE(fs::exists(ckpt_path));

  jobs.Shutdown();
  fs::remove_all(ckpt_dir);
}

}  // namespace
}  // namespace easytime::serve
