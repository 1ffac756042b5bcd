// EventLoopServer tests: the thread-per-connection TCP front-end driven
// through raw loopback sockets. Covers request/response and pipelining
// order, partial writes, CRLF/blank-line tolerance, the oversized-line
// protocol error, the idle timeout, the max_connections accept gate,
// half-closed peers, and the graceful drain on Stop. Every read is
// poll-bounded, so a server hang fails the test instead of wedging the
// suite.

#include "serve/event_loop.h"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "serve/server.h"
#include "socket_test_util.h"

namespace easytime::serve {
namespace {

using namespace std::chrono_literals;
using testutil::ConnectLoopback;
using testutil::LineReader;
using testutil::SendAll;
using testutil::WaitForEof;

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

std::string ReqLine(int64_t id, const std::string& endpoint,
                    Json params = Json::Object()) {
  Json req = Json::Object();
  req.Set("id", id);
  req.Set("endpoint", endpoint);
  req.Set("params", std::move(params));
  return req.Dump() + "\n";
}

class EventLoopTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { system_ = MakeSystem(); }
  static void TearDownTestSuite() {
    delete system_;
    system_ = nullptr;
  }
  void SetUp() override {
    ASSERT_NE(system_, nullptr);
    FaultRegistry::Global().DisarmAll();
  }
  void TearDown() override { FaultRegistry::Global().DisarmAll(); }
  static core::EasyTime* system_;
};

core::EasyTime* EventLoopTest::system_ = nullptr;

TEST_F(EventLoopTest, PingRoundTripAndStats) {
  ForecastServer server(system_);
  server.Start();
  EventLoopServer loop(&server, EventLoopServer::Options{});
  ASSERT_TRUE(loop.Start().ok());
  ASSERT_GT(loop.port(), 0);
  EXPECT_TRUE(loop.running());

  int fd = ConnectLoopback(loop.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(SendAll(fd, ReqLine(7, "ping")));
  LineReader reader{fd};
  auto line = reader.Next(3000);
  ASSERT_TRUE(line.has_value()) << "no response within 3s";
  auto resp = Json::Parse(*line);
  ASSERT_TRUE(resp.ok()) << *line;
  EXPECT_EQ(resp->GetInt("id", -1), 7);
  EXPECT_TRUE(resp->GetBool("ok", false));
  EXPECT_TRUE(resp->Get("result").GetBool("pong", false));
  ::close(fd);

  // The loop notices the close; counters settle.
  for (int i = 0; i < 500 && loop.open_connections() > 0; ++i) {
    std::this_thread::sleep_for(2ms);
  }
  auto stats = loop.stats();
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.closed, 1u);
  EXPECT_EQ(stats.requests_dispatched, 1u);
  EXPECT_EQ(stats.responses_written, 1u);
  loop.Stop();
  EXPECT_FALSE(loop.running());
  server.Stop();
}

TEST_F(EventLoopTest, PipelinedRequestsAnswerInOrder) {
  ForecastServer server(system_);
  server.Start();
  EventLoopServer loop(&server, EventLoopServer::Options{});
  ASSERT_TRUE(loop.Start().ok());

  int fd = ConnectLoopback(loop.port());
  ASSERT_GE(fd, 0);
  std::string burst;
  constexpr int kN = 16;
  for (int i = 0; i < kN; ++i) burst += ReqLine(100 + i, "ping");
  ASSERT_TRUE(SendAll(fd, burst));  // one write, kN framed requests

  LineReader reader{fd};
  for (int i = 0; i < kN; ++i) {
    auto line = reader.Next(3000);
    ASSERT_TRUE(line.has_value()) << "response " << i << " missing";
    auto resp = Json::Parse(*line);
    ASSERT_TRUE(resp.ok());
    // Pipelined responses must come back in request order.
    EXPECT_EQ(resp->GetInt("id", -1), 100 + i);
    EXPECT_TRUE(resp->GetBool("ok", false));
  }
  ::close(fd);
  loop.Stop();
  server.Stop();
}

TEST_F(EventLoopTest, ByteAtATimeRequestStillParses) {
  ForecastServer server(system_);
  server.Start();
  EventLoopServer loop(&server, EventLoopServer::Options{});
  ASSERT_TRUE(loop.Start().ok());

  int fd = ConnectLoopback(loop.port());
  ASSERT_GE(fd, 0);
  const std::string line = ReqLine(3, "ping");
  for (char c : line) {
    ASSERT_TRUE(SendAll(fd, std::string(1, c)));
  }
  LineReader reader{fd};
  auto resp_line = reader.Next(3000);
  ASSERT_TRUE(resp_line.has_value());
  auto resp = Json::Parse(*resp_line);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->GetInt("id", -1), 3);
  EXPECT_TRUE(resp->GetBool("ok", false));
  ::close(fd);
  loop.Stop();
  server.Stop();
}

TEST_F(EventLoopTest, MalformedJsonGetsErrorEnvelopeAndConnectionSurvives) {
  ForecastServer server(system_);
  server.Start();
  EventLoopServer loop(&server, EventLoopServer::Options{});
  ASSERT_TRUE(loop.Start().ok());

  int fd = ConnectLoopback(loop.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(SendAll(fd, "this is not json\n"));
  LineReader reader{fd};
  auto err_line = reader.Next(3000);
  ASSERT_TRUE(err_line.has_value());
  auto err = Json::Parse(*err_line);
  ASSERT_TRUE(err.ok()) << *err_line;
  EXPECT_FALSE(err->GetBool("ok", true));
  EXPECT_FALSE(err->Get("error").GetString("code", "").empty());

  // The connection survives a malformed line; a well-formed request works.
  ASSERT_TRUE(SendAll(fd, ReqLine(9, "ping")));
  auto ok_line = reader.Next(3000);
  ASSERT_TRUE(ok_line.has_value());
  auto ok = Json::Parse(*ok_line);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->GetInt("id", -1), 9);
  EXPECT_TRUE(ok->GetBool("ok", false));
  ::close(fd);
  loop.Stop();
  server.Stop();
}

TEST_F(EventLoopTest, CrlfAndBlankLinesAreTolerated) {
  ForecastServer server(system_);
  server.Start();
  EventLoopServer loop(&server, EventLoopServer::Options{});
  ASSERT_TRUE(loop.Start().ok());

  int fd = ConnectLoopback(loop.port());
  ASSERT_GE(fd, 0);
  std::string line = ReqLine(5, "ping");
  line.pop_back();  // replace \n with \r\n, padded by blank lines
  ASSERT_TRUE(SendAll(fd, "\r\n\n" + line + "\r\n"));
  LineReader reader{fd};
  auto resp_line = reader.Next(3000);
  ASSERT_TRUE(resp_line.has_value());
  auto resp = Json::Parse(*resp_line);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->GetInt("id", -1), 5);
  EXPECT_TRUE(resp->GetBool("ok", false));
  ::close(fd);
  loop.Stop();
  server.Stop();
}

TEST_F(EventLoopTest, OversizedUnterminatedLineAnsweredThenClosed) {
  ForecastServer server(system_);
  server.Start();
  EventLoopServer::Options opts;
  opts.max_line_bytes = 2048;
  EventLoopServer loop(&server, opts);
  ASSERT_TRUE(loop.Start().ok());

  int fd = ConnectLoopback(loop.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(SendAll(fd, std::string(8192, 'x')));  // no newline, ever

  LineReader reader{fd};
  auto err_line = reader.Next(3000);
  ASSERT_TRUE(err_line.has_value()) << "oversized line must get one error";
  auto err = Json::Parse(*err_line);
  ASSERT_TRUE(err.ok()) << *err_line;
  EXPECT_FALSE(err->GetBool("ok", true));
  EXPECT_NE(err->Get("error").GetString("message", "").find("size limit"),
            std::string::npos);
  EXPECT_TRUE(WaitForEof(fd, 3000)) << "protocol violation must close";
  ::close(fd);

  EXPECT_GE(loop.stats().protocol_errors, 1u);
  loop.Stop();
  server.Stop();
}

TEST_F(EventLoopTest, IdleConnectionIsSweptOut) {
  ForecastServer server(system_);
  server.Start();
  EventLoopServer::Options opts;
  opts.idle_timeout_ms = 60.0;
  EventLoopServer loop(&server, opts);
  ASSERT_TRUE(loop.Start().ok());

  int fd = ConnectLoopback(loop.port());
  ASSERT_GE(fd, 0);
  // Activity resets the idle clock: the connection answers first...
  ASSERT_TRUE(SendAll(fd, ReqLine(1, "ping")));
  LineReader reader{fd};
  ASSERT_TRUE(reader.Next(3000).has_value());
  // ...then goes quiet and must be closed by the sweep.
  EXPECT_TRUE(WaitForEof(fd, 3000)) << "idle connection never closed";
  ::close(fd);
  EXPECT_GE(loop.stats().idle_closed, 1u);
  loop.Stop();
  server.Stop();
}

TEST_F(EventLoopTest, HalfClosedPeerStillGetsItsAnswer) {
  ForecastServer server(system_);
  server.Start();
  EventLoopServer loop(&server, EventLoopServer::Options{});
  ASSERT_TRUE(loop.Start().ok());

  int fd = ConnectLoopback(loop.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(SendAll(fd, ReqLine(11, "ping")));
  ::shutdown(fd, SHUT_WR);  // we are done sending; the answer must still come

  LineReader reader{fd};
  auto line = reader.Next(3000);
  ASSERT_TRUE(line.has_value()) << "half-closed peer lost its response";
  auto resp = Json::Parse(*line);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->GetInt("id", -1), 11);
  EXPECT_TRUE(resp->GetBool("ok", false));
  EXPECT_TRUE(WaitForEof(fd, 3000));  // then the server closes its side
  ::close(fd);
  loop.Stop();
  server.Stop();
}

TEST_F(EventLoopTest, MaxConnectionsDefersExtrasToTheBacklog) {
  ForecastServer server(system_);
  server.Start();
  EventLoopServer::Options opts;
  opts.max_connections = 1;
  EventLoopServer loop(&server, opts);
  ASSERT_TRUE(loop.Start().ok());

  int a = ConnectLoopback(loop.port());
  ASSERT_GE(a, 0);
  ASSERT_TRUE(SendAll(a, ReqLine(1, "ping")));
  LineReader ra{a};
  ASSERT_TRUE(ra.Next(3000).has_value());

  // A second connection sits in the listen backlog: connect() succeeds but
  // nothing is served while the slot is taken.
  int b = ConnectLoopback(loop.port());
  ASSERT_GE(b, 0);
  ASSERT_TRUE(SendAll(b, ReqLine(2, "ping")));
  LineReader rb{b};
  EXPECT_FALSE(rb.Next(150).has_value())
      << "connection over the cap must not be served";

  // Freeing the slot resumes accept and the parked connection is served.
  ::close(a);
  auto line = rb.Next(3000);
  ASSERT_TRUE(line.has_value()) << "backlogged connection never served";
  auto resp = Json::Parse(*line);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->GetInt("id", -1), 2);
  ::close(b);
  loop.Stop();
  server.Stop();
}

TEST_F(EventLoopTest, StopDrainsInFlightRequestAndIsTerminal) {
  ForecastServer server(system_);
  server.Start();
  EventLoopServer loop(&server, EventLoopServer::Options{});
  ASSERT_TRUE(loop.Start().ok());

  int fd = ConnectLoopback(loop.port());
  ASSERT_GE(fd, 0);
  // A deliberately slow request (sleep_ms is the serving layer's test aid).
  Json params = Json::Object();
  Json values = Json::Array();
  for (int i = 0; i < 16; ++i) values.Append(static_cast<double>(i % 5));
  params.Set("values", std::move(values));
  params.Set("method", "naive");
  params.Set("horizon", static_cast<int64_t>(3));
  params.Set("sleep_ms", 150.0);
  ASSERT_TRUE(SendAll(fd, ReqLine(42, "forecast", std::move(params))));
  std::this_thread::sleep_for(40ms);  // let the request reach a handler

  loop.Stop();  // drain: the in-flight response must flush before the close

  LineReader reader{fd};
  auto line = reader.Next(3000);
  ASSERT_TRUE(line.has_value()) << "drain dropped an in-flight response";
  auto resp = Json::Parse(*line);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->GetInt("id", -1), 42);
  EXPECT_TRUE(resp->GetBool("ok", false)) << *line;
  EXPECT_TRUE(WaitForEof(fd, 3000));
  ::close(fd);

  // Stop is terminal: a stopped loop refuses to restart.
  EXPECT_FALSE(loop.running());
  EXPECT_FALSE(loop.Start().ok());
  server.Stop();
}

TEST_F(EventLoopTest, ManySequentialConnectionsRecycleCleanly) {
  ForecastServer server(system_);
  server.Start();
  EventLoopServer loop(&server, EventLoopServer::Options{});
  ASSERT_TRUE(loop.Start().ok());

  // Rapid connect/request/close cycles reuse kernel fds; a recycled fd
  // must never confuse one peer for another.
  for (int i = 0; i < 40; ++i) {
    int fd = ConnectLoopback(loop.port());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(SendAll(fd, ReqLine(i, "ping")));
    LineReader reader{fd};
    auto line = reader.Next(3000);
    ASSERT_TRUE(line.has_value()) << "cycle " << i;
    auto resp = Json::Parse(*line);
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->GetInt("id", -1), i);
    ::close(fd);
  }
  auto stats = loop.stats();
  EXPECT_EQ(stats.accepted, 40u);
  EXPECT_EQ(stats.requests_dispatched, 40u);
  loop.Stop();
  server.Stop();
}

}  // namespace
}  // namespace easytime::serve
