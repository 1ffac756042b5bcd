#include "serve/server.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "serve/event_loop.h"
#include "serve/request.h"

namespace easytime::serve {
namespace {

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

class ServeTest : public ::testing::Test {
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

  static core::EasyTime* system_;
  static ForecastServer* server_;
};

core::EasyTime* ServeTest::system_ = nullptr;
ForecastServer* ServeTest::server_ = nullptr;

Json MustParse(const std::string& s) {
  auto j = Json::Parse(s);
  EXPECT_TRUE(j.ok()) << j.status().ToString() << " in " << s;
  return std::move(*j);
}

// ---------------------------------------------------------------------------
// Protocol / envelope behaviour
// ---------------------------------------------------------------------------

TEST(ServeEnvelopeTest, ParseResponseRoundTripsEveryErrorCode) {
  // Every failure code survives MakeErrorResponse -> wire -> ParseResponse.
  for (int c = 1; c < kNumStatusCodes; ++c) {
    const Status sent(static_cast<StatusCode>(c), "why " + std::to_string(c));
    auto got = ParseResponse(MakeErrorResponse(7, sent).Dump());
    ASSERT_FALSE(got.ok()) << ErrorCodeToken(sent.code());
    EXPECT_EQ(got.status().code(), sent.code()) << ErrorCodeToken(sent.code());
    EXPECT_EQ(got.status().message(), sent.message());
  }
  // Success unwraps to the result payload.
  Json result = Json::Object();
  result.Set("pong", true);
  auto ok = ParseResponse(MakeOkResponse(7, result).Dump());
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(ok->GetBool("pong", false));
  // A code this build does not know, or a failed reply claiming "Ok", is
  // Internal with the message kept; a non-JSON line is a parse error.
  for (const char* code : {"SomeFutureCode", "Ok"}) {
    auto odd = ParseResponse(std::string(R"({"ok":false,"error":{"code":")") +
                             code + R"(","message":"m"}})");
    ASSERT_FALSE(odd.ok()) << code;
    EXPECT_EQ(odd.status().code(), StatusCode::kInternal) << code;
    EXPECT_EQ(odd.status().message(), "m");
  }
  EXPECT_FALSE(ParseResponse("not json").ok());
}

TEST_F(ServeTest, MalformedJsonIsAnErrorResponseNotACrash) {
  Json resp = MustParse(server_->HandleLine("this is not json{{{"));
  EXPECT_FALSE(resp.GetBool("ok", true));
  EXPECT_EQ(resp.Get("error").GetString("code", ""), "ParseError");
}

TEST_F(ServeTest, NonObjectAndMissingEndpointAreRejected) {
  Json arr = MustParse(server_->HandleLine("[1,2,3]"));
  EXPECT_FALSE(arr.GetBool("ok", true));

  Json no_ep = MustParse(server_->HandleLine(R"({"id": 7, "params": {}})"));
  EXPECT_FALSE(no_ep.GetBool("ok", true));
  // A parsable id is still echoed so the client can correlate the error.
  EXPECT_EQ(no_ep.GetInt("id", -1), 7);
}

TEST_F(ServeTest, UnknownEndpointIsNotFound) {
  Json resp = MustParse(
      server_->HandleLine(R"({"id": 1, "endpoint": "teleport"})"));
  EXPECT_FALSE(resp.GetBool("ok", true));
  EXPECT_EQ(resp.Get("error").GetString("code", ""), "NotFound");
}

TEST_F(ServeTest, OversizedRequestIsRejected) {
  std::string big(server_->options().max_request_bytes + 1, 'x');
  std::string line = R"({"endpoint": "ask", "params": {"question": ")" + big +
                     R"("}})";
  Json resp = MustParse(server_->HandleLine(line));
  EXPECT_FALSE(resp.GetBool("ok", true));
  EXPECT_EQ(resp.Get("error").GetString("code", ""), "InvalidArgument");
}

TEST_F(ServeTest, PingAndStatsAlwaysAnswer) {
  Json pong = MustParse(server_->HandleLine(R"({"endpoint": "ping"})"));
  EXPECT_TRUE(pong.GetBool("ok", false));
  EXPECT_TRUE(pong.Get("result").GetBool("pong", false));

  Json stats = MustParse(server_->HandleLine(R"({"endpoint": "stats"})"));
  ASSERT_TRUE(stats.GetBool("ok", false));
  EXPECT_TRUE(stats.Get("result").Has("endpoints"));
  EXPECT_TRUE(stats.Get("result").Has("cache"));
  EXPECT_TRUE(stats.Get("result").Has("jobs"));
}

// ---------------------------------------------------------------------------
// Fast lane
// ---------------------------------------------------------------------------

TEST_F(ServeTest, ForecastOnRepositoryDataset) {
  Json params = Json::Object();
  params.Set("dataset", FirstDataset());
  params.Set("method", "theta");
  params.Set("horizon", static_cast<int64_t>(8));
  auto result = server_->Call("forecast", params);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->Get("values").size(), 8u);
  EXPECT_EQ(result->GetString("method", ""), "theta");
  EXPECT_EQ(result->GetString("source", ""), FirstDataset());
}

TEST_F(ServeTest, ForecastOnInlineValues) {
  Json params = Json::Object();
  Json values = Json::Array();
  for (int t = 0; t < 64; ++t) values.Append(10.0 + 0.5 * t);
  params.Set("values", std::move(values));
  params.Set("method", "drift");
  params.Set("horizon", static_cast<int64_t>(4));
  auto result = server_->Call("forecast", params);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->Get("values").size(), 4u);
  // Drift on a rising line keeps rising.
  EXPECT_GT(result->Get("values").items()[3].AsDouble(), 40.0);
}

TEST_F(ServeTest, ForecastOnOutOfRangeInlineValueIsAnError) {
  // 1e999 overflows a double. Read as inf it would be fitted, answered with
  // null forecasts and cached; it must be rejected as malformed input.
  std::string values;
  for (int t = 0; t < 64; ++t) values += std::to_string(10 + t) + ",";
  const std::string line =
      R"({"id": 3, "endpoint": "forecast", "params": {"method": "theta",)"
      R"( "horizon": 4, "values": [)" +
      values + R"(1e999]}})";
  Json resp = MustParse(server_->HandleLine(line));
  EXPECT_FALSE(resp.GetBool("ok", true)) << resp.Dump();
  EXPECT_EQ(resp.Get("error").GetString("code", ""), "ParseError");
}

TEST_F(ServeTest, ForecastValidation) {
  Json params = Json::Object();
  params.Set("dataset", FirstDataset());
  EXPECT_TRUE(server_->Call("forecast", params).status().IsInvalidArgument());

  params.Set("method", "no_such_method");
  EXPECT_FALSE(server_->Call("forecast", params).ok());

  params.Set("method", "naive");
  params.Set("horizon", static_cast<int64_t>(100000));
  EXPECT_EQ(server_->Call("forecast", params).status().code(),
            StatusCode::kOutOfRange);

  Json bad = Json::Object();
  bad.Set("method", "naive");
  bad.Set("dataset", "ghost_dataset");
  EXPECT_FALSE(server_->Call("forecast", bad).ok());
}

TEST_F(ServeTest, RecommendAndAskAndSql) {
  Json rp = Json::Object();
  rp.Set("dataset", FirstDataset());
  rp.Set("k", static_cast<int64_t>(2));
  auto rec = server_->Call("recommend", rp);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->Get("recommendations").size(), 2u);

  Json ap = Json::Object();
  ap.Set("question", "What is the average mae of theta?");
  auto ask = server_->Call("ask", ap);
  ASSERT_TRUE(ask.ok()) << ask.status().ToString();

  Json sp = Json::Object();
  sp.Set("query", "SELECT method FROM results LIMIT 1");
  auto sql = server_->Call("sql", sp);
  ASSERT_TRUE(sql.ok()) << sql.status().ToString();

  EXPECT_TRUE(server_->Call("ask", Json::Object())
                  .status().IsInvalidArgument());
}

TEST_F(ServeTest, SqlEndpointRunsForecastTableFunctions) {
  // The sql endpoint accepts DDL/DML too, so a client can stage its own
  // series and forecast them without leaving the wire protocol.
  Json ddl = Json::Object();
  ddl.Set("query", "CREATE TABLE serve_demo_ts (t INTEGER, v REAL)");
  ASSERT_TRUE(server_->Call("sql", ddl).ok());
  std::string insert = "INSERT INTO serve_demo_ts VALUES ";
  for (int i = 0; i < 48; ++i) {
    if (i) insert += ", ";
    insert += "(" + std::to_string(i) + ", " +
              std::to_string(10.0 + 0.5 * i) + ")";
  }
  Json dml = Json::Object();
  dml.Set("query", insert);
  ASSERT_TRUE(server_->Call("sql", dml).ok());

  Json fc = Json::Object();
  fc.Set("query",
         "SELECT * FROM TS_FORECAST(serve_demo_ts, t, v, model := 'drift', "
         "horizon := 4)");
  auto resp = server_->Call("sql", fc);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->Get("rows").size(), 4u);
}

TEST_F(ServeTest, SqlEndpointHonorsDeadlineUnderSlowFits) {
  Json ddl = Json::Object();
  ddl.Set("query", "CREATE TABLE serve_slow_ts (g INTEGER, t INTEGER, v REAL)");
  ASSERT_TRUE(server_->Call("sql", ddl).ok());
  std::string insert = "INSERT INTO serve_slow_ts VALUES ";
  for (int g = 0; g < 20; ++g) {
    for (int i = 0; i < 24; ++i) {
      if (g || i) insert += ", ";
      insert += "(" + std::to_string(g) + ", " + std::to_string(i) + ", " +
                std::to_string(5.0 + i + g) + ")";
    }
  }
  Json dml = Json::Object();
  dml.Set("query", insert);
  ASSERT_TRUE(server_->Call("sql", dml).ok());

  // Each of the 20 group fits sleeps 20ms under the injected fault; a 40ms
  // request deadline must surface DeadlineExceeded instead of ~400ms of
  // forced work.
  FaultSpec spec;
  spec.kind = FaultKind::kDelay;
  spec.delay_ms = 20.0;
  ASSERT_TRUE(FaultRegistry::Global().Arm("sql.forecast", spec).ok());
  Json fc = Json::Object();
  fc.Set("query",
         "SELECT * FROM TS_FORECAST_BY(serve_slow_ts, g, t, v, "
         "model := 'naive', horizon := 2)");
  fc.Set("deadline_ms", 40.0);
  auto resp = server_->Call("sql", fc);
  FaultRegistry::Global().DisarmAll();
  ASSERT_FALSE(resp.ok());
  EXPECT_TRUE(resp.status().IsDeadlineExceeded()) << resp.status().ToString();

  // With the fault disarmed and no deadline, the same query completes.
  fc = Json::Object();
  fc.Set("query",
         "SELECT * FROM TS_FORECAST_BY(serve_slow_ts, g, t, v, "
         "model := 'naive', horizon := 2)");
  auto ok = server_->Call("sql", fc);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->Get("rows").size(), 40u);
}

// ---------------------------------------------------------------------------
// Result cache
// ---------------------------------------------------------------------------

std::string ForecastLine(const std::string& dataset, const std::string& method,
                         int id, int horizon = 6) {
  Json req = Json::Object();
  req.Set("id", static_cast<int64_t>(id));
  req.Set("endpoint", "forecast");
  Json params = Json::Object();
  params.Set("dataset", dataset);
  params.Set("method", method);
  params.Set("horizon", static_cast<int64_t>(horizon));
  req.Set("params", std::move(params));
  return req.Dump();
}

TEST_F(ServeTest, CacheHitOnRepeatAndKeyOrderInsensitive) {
  Json miss = MustParse(
      server_->HandleLine(ForecastLine(FirstDataset(), "ses", 100)));
  ASSERT_TRUE(miss.GetBool("ok", false));
  EXPECT_FALSE(miss.GetBool("cached", true));

  Json hit = MustParse(
      server_->HandleLine(ForecastLine(FirstDataset(), "ses", 101)));
  ASSERT_TRUE(hit.GetBool("ok", false));
  EXPECT_TRUE(hit.GetBool("cached", false));
  EXPECT_EQ(hit.GetInt("id", -1), 101);  // fresh id on a cached payload
  EXPECT_EQ(hit.Get("result").Dump(), miss.Get("result").Dump());

  // Same request with keys in a different order canonicalizes to the same
  // cache entry.
  std::string reordered = R"({"id": 102, "endpoint": "forecast", "params": )"
                          R"({"horizon": 6, "method": "ses", "dataset": ")" +
                          FirstDataset() + R"("}})";
  Json hit2 = MustParse(server_->HandleLine(reordered));
  ASSERT_TRUE(hit2.GetBool("ok", false));
  EXPECT_TRUE(hit2.GetBool("cached", false));
}

TEST_F(ServeTest, CacheSurvivesEvaluationAndIsInvalidatedByAppend) {
  Json first = MustParse(
      server_->HandleLine(ForecastLine(FirstDataset(), "holt", 200)));
  ASSERT_TRUE(first.GetBool("ok", false));
  Json warm = MustParse(
      server_->HandleLine(ForecastLine(FirstDataset(), "holt", 201)));
  EXPECT_TRUE(warm.GetBool("cached", false));

  // An evaluation appends results to the knowledge base (its version moves)
  // but changes no series data — under tag-based invalidation the cached
  // forecast stays valid. This is exactly the over-invalidation the old
  // version-counter scheme suffered from.
  uint64_t before = system_->knowledge().version();
  auto cfg = Json::Parse(R"({
    "methods": ["window_average"],
    "evaluation": {"strategy": "fixed", "horizon": 6, "metrics": ["mae"]}
  })");
  ASSERT_TRUE(cfg.ok());
  auto report = system_->OneClickEvaluate(*cfg);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(system_->knowledge().version(), before);

  Json still_warm = MustParse(
      server_->HandleLine(ForecastLine(FirstDataset(), "holt", 202)));
  ASSERT_TRUE(still_warm.GetBool("ok", false));
  EXPECT_TRUE(still_warm.GetBool("cached", false));

  // A streaming append to the dataset the entry was computed from DOES
  // invalidate it.
  Json append = Json::Object();
  append.Set("dataset", FirstDataset());
  Json values = Json::Array();
  for (int i = 0; i < 4; ++i) values.Append(1.0 + 0.1 * i);
  append.Set("values", std::move(values));
  auto appended = server_->Call("append", append);
  ASSERT_TRUE(appended.ok()) << appended.status().ToString();
  EXPECT_GE(appended->GetInt("cache_invalidated", 0), 1);

  Json cold = MustParse(
      server_->HandleLine(ForecastLine(FirstDataset(), "holt", 203)));
  ASSERT_TRUE(cold.GetBool("ok", false));
  EXPECT_FALSE(cold.GetBool("cached", true));
}

TEST_F(ServeTest, AppendDuringAForecastDropsItsStaleCacheFill) {
  // The forecast snapshots the series, then sleeps; the append lands in
  // between. Its invalidation finds nothing cached yet, so the forecast's
  // own fill (computed from the pre-append series) must be dropped, not
  // served until the TTL runs out.
  Json params = Json::Object();
  params.Set("dataset", FirstDataset());
  params.Set("method", "naive");
  params.Set("horizon", static_cast<int64_t>(3));
  params.Set("sleep_ms", 200.0);
  std::thread slow([&params]() {
    auto r = server_->Call("forecast", params);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  Json append = Json::Object();
  append.Set("dataset", FirstDataset());
  Json values = Json::Array();
  values.Append(1e6);
  append.Set("values", std::move(values));
  auto appended = server_->Call("append", append);
  slow.join();
  ASSERT_TRUE(appended.ok()) << appended.status().ToString();

  Json request = Json::Object();
  request.Set("id", static_cast<int64_t>(300));
  request.Set("endpoint", "forecast");
  request.Set("params", params);
  Json again = MustParse(server_->HandleLine(request.Dump()));
  ASSERT_TRUE(again.GetBool("ok", false)) << again.Dump();
  EXPECT_FALSE(again.GetBool("cached", true)) << "stale fill was cached";
  const Json& forecast = again.Get("result").Get("values");
  ASSERT_EQ(forecast.size(), 3u);
  for (const auto& v : forecast.items()) EXPECT_DOUBLE_EQ(v.AsDouble(), 1e6);
}

// A fast-lane success line with its "cached" and "seconds" members cut off.
// They are the last two members, so what is left is the part that must not
// depend on whether the reply came from the cache.
std::string WithoutCacheTail(const std::string& line, bool cached) {
  const std::string tail = std::string(",\"cached\":") +
                           (cached ? "true" : "false") + ",\"seconds\":";
  const size_t at = line.rfind(tail);
  EXPECT_NE(at, std::string::npos) << "no " << tail << " in " << line;
  if (at == std::string::npos) return line;
  EXPECT_EQ(line.back(), '}') << line;
  EXPECT_EQ(line.find(',', at + tail.size()), std::string::npos) << line;
  return line.substr(0, at);
}

std::string RequestLine(const Json* id, const std::string& endpoint,
                        const Json& params) {
  Json req = Json::Object();
  if (id) req.Set("id", *id);
  req.Set("endpoint", endpoint);
  req.Set("params", params);
  return req.Dump();
}

TEST_F(ServeTest, CacheHitReplyIsByteIdenticalToTheMiss) {
  const Json id(static_cast<int64_t>(4242));
  for (const Json* with_id : {&id, static_cast<const Json*>(nullptr)}) {
    Json params = Json::Object();
    params.Set("dataset", FirstDataset());
    params.Set("method", "drift");
    params.Set("horizon", static_cast<int64_t>(with_id ? 5 : 9));
    const std::string line = RequestLine(with_id, "forecast", params);
    const std::string miss = server_->HandleLine(line);
    const std::string hit = server_->HandleLine(line);
    SCOPED_TRACE(miss);
    const std::string head = with_id ? "{\"id\":4242,\"ok\":true,\"result\":{"
                                     : "{\"ok\":true,\"result\":{";
    EXPECT_EQ(miss.substr(0, head.size()), head);
    EXPECT_EQ(WithoutCacheTail(hit, true), WithoutCacheTail(miss, false));
    // The bytes are the tree's own dump: a reader that re-serializes the
    // reply gets the same line back.
    EXPECT_EQ(MustParse(hit).Dump(), hit);
    EXPECT_EQ(MustParse(miss).Dump(), miss);
  }
}

TEST_F(ServeTest, CacheHitStillRunsTheDispatchChecks) {
  Json params = Json::Object();
  params.Set("dataset", FirstDataset());
  params.Set("method", "drift");
  params.Set("horizon", static_cast<int64_t>(11));
  const std::string line = RequestLine(nullptr, "forecast", params);
  ASSERT_TRUE(MustParse(server_->HandleLine(line)).GetBool("ok", false));
  ASSERT_TRUE(MustParse(server_->HandleLine(line)).GetBool("cached", false));

  // An armed serve.dispatch fault fails the request before the cache is
  // consulted, hit or not.
  FaultSpec spec;
  spec.code = StatusCode::kUnavailable;
  ASSERT_TRUE(FaultRegistry::Global().Arm("serve.dispatch", spec).ok());
  Json faulted = MustParse(server_->HandleLine(line));
  FaultRegistry::Global().DisarmAll();
  EXPECT_FALSE(faulted.GetBool("ok", true)) << faulted.Dump();
  EXPECT_EQ(faulted.Get("error").GetString("code", ""), "Unavailable");
  EXPECT_TRUE(MustParse(server_->HandleLine(line)).GetBool("cached", false));

  // A malformed deadline on the same request is rejected, not answered.
  Json bad = params;
  bad.Set("deadline_ms", "x");
  auto rejected = server_->Call("forecast", bad);
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsInvalidArgument())
      << rejected.status().ToString();
}

TEST_F(ServeTest, CallReturnsEqualResultsForAMissAndAHit) {
  Json params = Json::Object();
  params.Set("dataset", FirstDataset());
  params.Set("method", "seasonal_naive");
  params.Set("horizon", static_cast<int64_t>(13));
  const int64_t hits_before = server_->StatsJson()
                                  .Get("endpoints")
                                  .Get("forecast")
                                  .GetInt("cache_hits", 0);
  auto miss = server_->Call("forecast", params);
  auto hit = server_->Call("forecast", params);
  ASSERT_TRUE(miss.ok()) << miss.status().ToString();
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  EXPECT_EQ(hit->Dump(), miss->Dump());
  ASSERT_EQ(hit->Get("values").size(), 13u);
  for (size_t i = 0; i < 13; ++i) {
    EXPECT_EQ(hit->Get("values").items()[i].AsDouble(),
              miss->Get("values").items()[i].AsDouble());
  }
  EXPECT_EQ(server_->StatsJson()
                .Get("endpoints")
                .Get("forecast")
                .GetInt("cache_hits", 0),
            hits_before + 1);
}

TEST_F(ServeTest, DegradedResultIsNotCached) {
  Json params = Json::Object();
  params.Set("dataset", FirstDataset());
  params.Set("k", static_cast<int64_t>(2));
  const std::string line = RequestLine(nullptr, "recommend", params);
  easytime::GlobalOverload().set_brownout(true);
  const Json degraded = MustParse(server_->HandleLine(line));
  easytime::GlobalOverload().set_brownout(false);
  ASSERT_TRUE(degraded.GetBool("ok", false)) << degraded.Dump();
  EXPECT_TRUE(degraded.Get("result").GetBool("degraded", false));

  const Json fresh = MustParse(server_->HandleLine(line));
  ASSERT_TRUE(fresh.GetBool("ok", false)) << fresh.Dump();
  EXPECT_FALSE(fresh.GetBool("cached", true))
      << "a brownout answer was served from the cache";
  EXPECT_FALSE(fresh.Get("result").GetBool("degraded", false));
  EXPECT_TRUE(MustParse(server_->HandleLine(line)).GetBool("cached", false));
}

// Params of a forecast over an uploaded series: 16 values from \p seed on.
Json UploadParams(int seed) {
  Json values = Json::Array();
  for (int t = 0; t < 16; ++t) values.Append(seed + 0.25 * (t % 5));
  Json params = Json::Object();
  params.Set("values", std::move(values));
  params.Set("method", "naive");
  params.Set("horizon", static_cast<int64_t>(3));
  return params;
}

TEST_F(ServeTest, StoredDatasetEntrySurvivesAThousandUploads) {
  // More distinct uploads than the cache holds (capacity 256) pass between
  // two lookups of a stored-dataset entry; none of them takes a slot.
  ASSERT_LT(server_->options().cache_capacity, 1000u);
  const std::string stored = ForecastLine(FirstDataset(), "theta", 900);
  ASSERT_TRUE(MustParse(server_->HandleLine(stored)).GetBool("ok", false));
  for (int i = 0; i < 1000; ++i) {
    const Json up =
        MustParse(server_->HandleLine(RequestLine(nullptr, "forecast",
                                                  UploadParams(i))));
    ASSERT_TRUE(up.GetBool("ok", false)) << up.Dump();
  }
  const Json again = MustParse(server_->HandleLine(stored));
  ASSERT_TRUE(again.GetBool("ok", false)) << again.Dump();
  EXPECT_TRUE(again.GetBool("cached", false))
      << "uploads evicted a stored-dataset entry";
}

TEST_F(ServeTest, IdenticalUploadsAnswerByteIdenticallyAndUncached) {
  const std::string line = RequestLine(nullptr, "forecast", UploadParams(7));
  const std::string first = server_->HandleLine(line);
  const std::string second = server_->HandleLine(line);
  SCOPED_TRACE(first);
  EXPECT_TRUE(MustParse(first).GetBool("ok", false));
  EXPECT_EQ(WithoutCacheTail(second, false), WithoutCacheTail(first, false));
  EXPECT_EQ(MustParse(second).Get("result").Dump(),
            MustParse(first).Get("result").Dump());
}

TEST_F(ServeTest, UploadsCountAsMissesAndTouchNoEntry) {
  const Json before = server_->StatsJson().Get("cache");
  // A forecast and a recommend over uploaded values, and a forecast that
  // names a dataset but uploads its series too ("values" wins, so it reads
  // no stored data): each counts one miss, and none of them hits, fills or
  // evicts an entry.
  Json both = UploadParams(3);
  both.Set("dataset", FirstDataset());
  Json recommend = Json::Object();
  recommend.Set("values", UploadParams(5).Get("values"));
  for (const auto& [endpoint, params] :
       {std::pair<const char*, Json>{"forecast", UploadParams(3)},
        std::pair<const char*, Json>{"forecast", both},
        std::pair<const char*, Json>{"recommend", recommend}}) {
    for (int repeat = 0; repeat < 2; ++repeat) {
      const Json reply =
          MustParse(server_->HandleLine(RequestLine(nullptr, endpoint,
                                                    params)));
      ASSERT_TRUE(reply.GetBool("ok", false)) << reply.Dump();
      EXPECT_FALSE(reply.GetBool("cached", true)) << reply.Dump();
    }
  }
  const Json after = server_->StatsJson().Get("cache");
  EXPECT_EQ(after.GetInt("misses", -1), before.GetInt("misses", -1) + 6);
  for (const char* counter : {"entries", "hits", "insertions", "evictions",
                              "invalidations", "flushes"}) {
    EXPECT_EQ(after.GetInt(counter, -1), before.GetInt(counter, -1))
        << counter;
  }
}

// The recommend entries WarmCache seeds at start-up are spliced into replies
// like any other fill: a warmed hit, an organic miss and an organic hit on
// the same key differ only in "cached" and "seconds".
TEST(ServeWarmCacheTest, WarmedHitIsByteIdenticalToAMiss) {
  const std::string dir = (std::filesystem::path(::testing::TempDir()) /
                           "easytime_serve_warm_cache")
                              .string();
  std::filesystem::remove_all(dir);
  core::EasyTime::Options opt = SmallSystemOptions();
  opt.store_dir = dir;
  { ASSERT_TRUE(core::EasyTime::Create(opt).ok()); }
  auto system = core::EasyTime::Create(opt);
  ASSERT_TRUE(system.ok()) << system.status().ToString();
  ASSERT_TRUE((*system)->restored_from_store());

  Json params = Json::Object();
  params.Set("dataset", (*system)->repository()->names()[0]);
  const Json id(static_cast<int64_t>(9));
  for (const Json* with_id : {&id, static_cast<const Json*>(nullptr)}) {
    const std::string line = RequestLine(with_id, "recommend", params);
    ForecastServer warmed(system->get());
    warmed.Start();
    const std::string warm_hit = warmed.HandleLine(line);
    warmed.Stop();

    ForecastServer::Options cold_opt;
    cold_opt.warm_cache = false;
    ForecastServer cold(system->get(), cold_opt);
    cold.Start();
    const std::string miss = cold.HandleLine(line);
    const std::string hit = cold.HandleLine(line);
    cold.Stop();

    SCOPED_TRACE(miss);
    ASSERT_TRUE(MustParse(miss).GetBool("ok", false));
    EXPECT_EQ(WithoutCacheTail(warm_hit, true), WithoutCacheTail(miss, false));
    EXPECT_EQ(WithoutCacheTail(hit, true), WithoutCacheTail(miss, false));
  }
  system->reset();
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

TEST_F(ServeTest, FastLaneQueueFullIsRejectedNotDropped) {
  // A dedicated tiny server: 1 worker, admission capacity of 2. The
  // forecast class reserves one slot and may borrow the shared headroom for
  // a second pending request; a third while both are still pending bounces
  // with Unavailable instead of queueing unboundedly.
  ForecastServer::Options opt;
  opt.fast_lane_workers = 1;
  opt.fast_lane_capacity = 2;
  opt.cache_capacity = 0;  // keep every request on the slow path
  ForecastServer small(system_, opt);
  small.Start();

  Json slow = Json::Object();
  slow.Set("dataset", FirstDataset());
  slow.Set("method", "naive");
  slow.Set("horizon", static_cast<int64_t>(2));
  slow.Set("sleep_ms", 600.0);

  // Two staggered slow requests fill both admission slots (pending counts
  // running and queued work alike).
  std::vector<std::thread> occupants;
  std::atomic<int> ok_count{0};
  for (int i = 0; i < 2; ++i) {
    occupants.emplace_back([&small, slow, &ok_count]() {
      auto r = small.Call("forecast", slow);
      if (r.ok()) ok_count.fetch_add(1);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  Json quick = Json::Object();
  quick.Set("dataset", FirstDataset());
  quick.Set("method", "naive");
  quick.Set("horizon", static_cast<int64_t>(2));
  auto rejected = small.Call("forecast", quick);
  EXPECT_TRUE(rejected.status().IsUnavailable())
      << rejected.status().ToString();

  for (auto& t : occupants) t.join();
  EXPECT_EQ(ok_count.load(), 2);  // the admitted requests still completed
  small.Stop();

  Json stats = small.StatsJson();
  EXPECT_GE(stats.Get("endpoints").Get("forecast").GetInt("rejected", 0), 1);
  // Latency is measured to the answer, so it covers the 600 ms execution.
  EXPECT_GE(stats.Get("endpoints").Get("forecast").GetDouble("max_seconds", 0),
            0.6);
}

// ---------------------------------------------------------------------------
// Async evaluation lane
// ---------------------------------------------------------------------------

TEST_F(ServeTest, EvaluateJobRunsToCompletionAndLeavesCacheWarm) {
  Json warmup = MustParse(
      server_->HandleLine(ForecastLine(FirstDataset(), "theta", 300)));
  ASSERT_TRUE(warmup.GetBool("ok", false));

  Json params = MustParse(R"({
    "methods": ["drift"],
    "evaluation": {"strategy": "fixed", "horizon": 6, "metrics": ["mae"]}
  })");
  auto submitted = server_->Call("evaluate", params);
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  int64_t job = submitted->GetInt("job", -1);
  ASSERT_GE(job, 0);

  Json poll = Json::Object();
  poll.Set("job", job);
  std::string state;
  for (int i = 0; i < 600; ++i) {
    auto status = server_->Call("job_status", poll);
    ASSERT_TRUE(status.ok()) << status.status().ToString();
    state = status->GetString("state", "");
    if (state == "done" || state == "failed" || state == "cancelled") break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(state, "done");

  auto final_status = server_->Call("job_status", poll);
  ASSERT_TRUE(final_status.ok());
  EXPECT_GT(final_status->Get("result").GetInt("records", 0), 0);

  // The job committed benchmark results but touched no series data, so the
  // pre-job forecast entry is still valid under tag-based invalidation.
  Json after = MustParse(
      server_->HandleLine(ForecastLine(FirstDataset(), "theta", 301)));
  ASSERT_TRUE(after.GetBool("ok", false));
  EXPECT_TRUE(after.GetBool("cached", false));
}

TEST_F(ServeTest, QueuedJobCanBeCancelledAndJobQueueIsBounded) {
  ForecastServer::Options opt;
  opt.evaluate_queue_capacity = 1;
  ForecastServer small(system_, opt);
  small.Start();

  // Long job holds the single job worker; epochs make it slow enough that
  // the queued job behind it stays queued while we cancel it.
  Json heavy = MustParse(R"({
    "datasets": [")" + FirstDataset() + R"("],
    "methods": [{"name": "gru", "config": {"epochs": 60}}],
    "evaluation": {"strategy": "fixed", "horizon": 6, "metrics": ["mae"]}
  })");
  auto first = small.Call("evaluate", heavy);
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  Json light = MustParse(R"({
    "methods": ["naive"],
    "evaluation": {"strategy": "fixed", "horizon": 6, "metrics": ["mae"]}
  })");
  // The queue slot behind the running job is eventually taken by this one.
  Result<Json> second = Status::Internal("unset");
  for (int i = 0; i < 200; ++i) {
    second = small.Call("evaluate", light);
    if (second.ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(second.ok()) << second.status().ToString();

  // With the worker busy and the queue slot taken, the lane is full.
  auto third = small.Call("evaluate", light);
  EXPECT_TRUE(third.status().IsUnavailable()) << third.status().ToString();

  // Cancel the queued job: it must finish as "cancelled", never run.
  Json cancel_params = Json::Object();
  cancel_params.Set("job", second->GetInt("job", -1));
  auto cancelled = small.Call("cancel", cancel_params);
  ASSERT_TRUE(cancelled.ok()) << cancelled.status().ToString();
  EXPECT_EQ(cancelled->GetString("state", ""), "cancelled");

  // Cancel the running job too; it either reacts to the flag (cancelled) or
  // had already finished (done) — both are clean terminal states.
  Json cancel_first = Json::Object();
  cancel_first.Set("job", first->GetInt("job", -1));
  ASSERT_TRUE(small.Call("cancel", cancel_first).ok());
  std::string state;
  // Generous budget: one in-flight pair can take tens of seconds under
  // TSan's ~20x slowdown, and the loop exits as soon as the job lands.
  for (int i = 0; i < 6000; ++i) {
    auto status = small.Call("job_status", cancel_first);
    ASSERT_TRUE(status.ok());
    state = status->GetString("state", "");
    if (state != "queued" && state != "running") break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(state == "cancelled" || state == "done") << state;

  EXPECT_TRUE(small.Call("cancel", MustParse(R"({"job": 999})"))
                  .status().IsNotFound());
  small.Stop();
}

// ---------------------------------------------------------------------------
// Loopback TCP front-end
// ---------------------------------------------------------------------------

class LoopbackClient {
 public:
  explicit LoopbackClient(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    connected_ = fd_ >= 0 && ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                                       sizeof(addr)) == 0;
  }
  ~LoopbackClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool connected() const { return connected_; }

  bool SendLine(const std::string& line) {
    std::string data = line + "\n";
    return ::send(fd_, data.data(), data.size(), 0) ==
           static_cast<ssize_t>(data.size());
  }
  std::string ReadLine() {
    std::string line;
    char c;
    while (::recv(fd_, &c, 1, 0) == 1) {
      if (c == '\n') return line;
      line.push_back(c);
    }
    return line;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

TEST_F(ServeTest, TcpLoopbackServesPipelinedRequests) {
  EventLoopServer tcp(server_, EventLoopServer::Options());
  auto started = tcp.Start();
  ASSERT_TRUE(started.ok()) << started.ToString();
  ASSERT_GT(tcp.port(), 0);

  LoopbackClient client(tcp.port());
  ASSERT_TRUE(client.connected());

  // Pipeline: two valid requests and a malformed one on a single connection.
  ASSERT_TRUE(client.SendLine(R"({"id": 1, "endpoint": "ping"})"));
  ASSERT_TRUE(client.SendLine("not json"));
  ASSERT_TRUE(client.SendLine(ForecastLine(FirstDataset(), "naive", 2)));

  Json r1 = MustParse(client.ReadLine());
  EXPECT_EQ(r1.GetInt("id", -1), 1);
  EXPECT_TRUE(r1.GetBool("ok", false));

  Json r2 = MustParse(client.ReadLine());
  EXPECT_FALSE(r2.GetBool("ok", true));

  Json r3 = MustParse(client.ReadLine());
  EXPECT_EQ(r3.GetInt("id", -1), 2);
  EXPECT_TRUE(r3.GetBool("ok", false));
  EXPECT_EQ(r3.Get("result").Get("values").size(), 6u);

  tcp.Stop();
  EXPECT_FALSE(tcp.running());
}

}  // namespace
}  // namespace easytime::serve
