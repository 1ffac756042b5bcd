// Protocol fuzz: a deterministic, seeded fuzzer fires >10k malformed frames
// at the TCP front-end — random garbage, binary noise, truncated JSON,
// type-confused envelopes, oversized unterminated lines, blank/CRLF frames,
// and partial writes split at random byte boundaries — interleaved with
// valid requests. The contract: every line the server sends back is a
// well-formed response envelope, no connection ever hangs (all IO is
// poll-bounded with explicit deadlines), and the server is still fully
// alive afterwards. The client socket is non-blocking so write backpressure
// turns into interleaved reads, never a deadlock.

#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <signal.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "cluster/router.h"
#include "serve/event_loop.h"
#include "serve/server.h"
#include "socket_test_util.h"

namespace easytime::serve {
namespace {

using testutil::ConnectLoopback;
using testutil::LineReader;
using testutil::SendAll;
using testutil::SetNonBlocking;

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

/// One generated frame plus whether it counts toward the malformed quota
/// and whether it ends the connection (oversized protocol violation).
struct Frame {
  std::string bytes;
  bool malformed = false;
  bool kills_connection = false;
};

class FrameGen {
 public:
  explicit FrameGen(uint64_t seed) : rng_(seed) {}

  Frame Next() {
    switch (Pick(11)) {
      case 0: return AsciiGarbage();
      case 1: return BinaryNoise();
      case 2: return TruncatedJson();
      case 3: return TypeConfusedEnvelope();
      case 4: return UnknownEndpoint();
      case 5: return BlankAndCrlf();
      case 6: return DeepNesting();
      case 7: return HugeTerminatedLine();
      case 8: return Oversized();
      case 9: return MalformedAppend();
      default: return ValidPing();
    }
  }

  size_t Pick(size_t n) { return static_cast<size_t>(rng_() % n); }

 private:
  Frame AsciiGarbage() {
    std::string s;
    size_t len = 1 + Pick(120);
    for (size_t i = 0; i < len; ++i) {
      s.push_back(static_cast<char>(' ' + Pick(95)));
    }
    // Garbage that happens to contain a newline splits into several
    // malformed lines — all the better.
    return {s + "\n", true, false};
  }

  Frame BinaryNoise() {
    std::string s;
    size_t len = 1 + Pick(200);
    for (size_t i = 0; i < len; ++i) {
      char c = static_cast<char>(rng_() & 0xff);
      if (c == '\n') c = '\0';  // keep it one frame
      s.push_back(c);
    }
    return {s + "\n", true, false};
  }

  Frame TruncatedJson() {
    std::string full = R"({"id": 1, "endpoint": "ping", "params": {}})";
    size_t cut = 1 + Pick(full.size() - 1);
    return {full.substr(0, cut) + "\n", true, false};
  }

  Frame TypeConfusedEnvelope() {
    static const char* kShapes[] = {
        R"({"id": "not-a-number", "endpoint": "ping"})",
        R"({"id": 1, "endpoint": 42})",
        R"({"id": 1})",
        R"({"endpoint": "forecast", "params": "not-an-object"})",
        R"([1, 2, 3])",
        R"("just a string")",
        R"({"id": 1, "endpoint": "forecast", "params": {"horizon": "x"}})",
        R"({"id": -9223372036854775808, "endpoint": "ping", "params": null})",
    };
    return {std::string(kShapes[Pick(8)]) + "\n", true, false};
  }

  Frame UnknownEndpoint() {
    return {R"({"id": 2, "endpoint": "no_such_endpoint", "params": {}})"
            "\n",
            true, false};
  }

  Frame BlankAndCrlf() {
    static const char* kBlanks[] = {"\n", "\r\n", "\n\r\n\n", "   \n"};
    // Whitespace-only frames are protocol chaff, not requests; blank lines
    // are skipped outright, so no response is owed. "   \n" is malformed.
    std::string s = kBlanks[Pick(4)];
    return {s, s.find_first_not_of("\r\n") != std::string::npos, false};
  }

  Frame DeepNesting() {
    std::string s = R"({"id": 3, "endpoint": "ping", "params": )";
    size_t depth = 8 + Pick(60);
    for (size_t i = 0; i < depth; ++i) s += R"({"a":)";
    s += "1";
    for (size_t i = 0; i < depth; ++i) s += "}";
    s += "}";
    return {s + "\n", true, false};
  }

  Frame HugeTerminatedLine() {
    // Large but under the line cap and newline-terminated: framed normally,
    // fails JSON parsing, gets an error envelope; the connection survives.
    return {std::string(3000, 'y') + "\n", true, false};
  }

  Frame Oversized() {
    // Past the front-end's line cap with no newline: one error response,
    // then close.
    return {std::string(5000, 'z'), true, true};
  }

  Frame MalformedAppend() {
    // Well-formed envelopes carrying broken append params: unknown dataset,
    // type-confused/empty/ragged values, negative or gap-leaving starts.
    // Every one must come back as a well-formed error envelope and leave
    // stored series untouched.
    static const char* kShapes[] = {
        R"({"id": 7, "endpoint": "append", "params": {}})",
        R"({"id": 7, "endpoint": "append", "params": {"dataset": "no_such_ds", "values": [1.0]}})",
        R"({"id": 7, "endpoint": "append", "params": {"dataset": 42, "values": [1.0]}})",
        R"({"id": 7, "endpoint": "append", "params": {"dataset": "no_such_ds"}})",
        R"({"id": 7, "endpoint": "append", "params": {"dataset": "no_such_ds", "values": []}})",
        R"({"id": 7, "endpoint": "append", "params": {"dataset": "no_such_ds", "values": "nope"}})",
        R"({"id": 7, "endpoint": "append", "params": {"dataset": "no_such_ds", "values": [[1.0], []]}})",
        R"({"id": 7, "endpoint": "append", "params": {"dataset": "no_such_ds", "values": [1.0, "x"]}})",
        R"({"id": 7, "endpoint": "append", "params": {"dataset": "no_such_ds", "values": [1.0], "start": -3}})",
        R"({"id": 7, "endpoint": "append", "params": {"dataset": "no_such_ds", "values": [1.0], "start": 1.5}})",
        R"({"id": 7, "endpoint": "append", "params": {"dataset": "no_such_ds", "values": [1.0], "start": 999999}})",
    };
    return {std::string(kShapes[Pick(11)]) + "\n", true, false};
  }

  Frame ValidPing() {
    Json req = Json::Object();
    req.Set("id", static_cast<int64_t>(Pick(1000)));
    req.Set("endpoint", "ping");
    req.Set("params", Json::Object());
    return {req.Dump() + "\n", false, false};
  }

  std::mt19937_64 rng_;
};

class ProtocolFuzzTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { system_ = MakeSystem(); }
  static void TearDownTestSuite() {
    delete system_;
    system_ = nullptr;
  }
  void SetUp() override { ASSERT_NE(system_, nullptr); }
  static core::EasyTime* system_;
};

core::EasyTime* ProtocolFuzzTest::system_ = nullptr;

/// Drains every response currently readable (poll-bounded); each line must
/// be a well-formed envelope. Returns false only on malformed output.
bool DrainResponses(LineReader& reader, int timeout_ms, size_t* bad_lines) {
  for (;;) {
    auto line = reader.Next(timeout_ms);
    if (!line.has_value()) return true;
    timeout_ms = 0;  // only the first wait blocks
    auto resp = Json::Parse(*line);
    if (!resp.ok() || !resp->is_object() || !resp->Has("ok")) {
      ++*bad_lines;
      ADD_FAILURE() << "malformed response line: " << *line;
      if (*bad_lines > 5) return false;
    }
  }
}

/// Non-blocking send with a hard deadline; drains responses whenever the
/// socket back-pressures. Returns false when the server closed the
/// connection (expected after an oversized frame), fails the test on hang.
bool SendChunk(int fd, LineReader& reader, const std::string& data,
               size_t* bad_lines) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  size_t sent = 0;
  while (sent < data.size()) {
    if (std::chrono::steady_clock::now() > deadline) {
      ADD_FAILURE() << "send stalled >10s: backpressure deadlock";
      return false;
    }
    ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
#ifdef MSG_NOSIGNAL
                       MSG_NOSIGNAL
#else
                       0
#endif
    );
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Socket buffer full: the server wants us to read our responses.
      if (!DrainResponses(reader, 50, bad_lines)) return false;
      continue;
    }
    return false;  // EPIPE/ECONNRESET: server closed (oversized frame)
  }
  return true;
}

// The acceptance gate: >= 10000 seeded malformed frames, every response a
// well-formed envelope, no hang, and the server alive at the end.
TEST_F(ProtocolFuzzTest, TenThousandMalformedFramesNeverWedgeTheServer) {
  ForecastServer::Options sopt;
  sopt.fast_lane_workers = 2;
  sopt.cache_capacity = 0;
  ForecastServer server(system_, sopt);
  server.Start();

  EventLoopServer::Options lopt;
  lopt.max_line_bytes = 4096;  // cheap oversized trigger
  EventLoopServer loop(&server, lopt);
  ASSERT_TRUE(loop.Start().ok());

  constexpr size_t kMalformedTarget = 10000;
  FrameGen gen(0x20260805ULL);  // fixed seed: fully deterministic run
  size_t malformed = 0;
  size_t connections = 0;
  size_t bad_lines = 0;

  while (malformed < kMalformedTarget) {
    int fd = ConnectLoopback(loop.port());
    ASSERT_GE(fd, 0) << "connect failed after " << connections << " conns";
    ASSERT_TRUE(SetNonBlocking(fd));
    ++connections;
    LineReader reader{fd};
    bool alive = true;

    const size_t frames = 40 + gen.Pick(40);
    for (size_t f = 0; f < frames && alive; ++f) {
      Frame frame = gen.Next();
      // Partial writes: split the frame at 1-3 random byte boundaries so
      // the server reassembles across reads.
      size_t cuts = gen.Pick(3);
      size_t off = 0;
      for (size_t c = 0; c < cuts && alive; ++c) {
        if (off >= frame.bytes.size()) break;
        size_t cut = off + 1 + gen.Pick(frame.bytes.size() - off);
        alive = SendChunk(fd, reader,
                          frame.bytes.substr(off, cut - off), &bad_lines);
        off = cut;
      }
      if (alive && off < frame.bytes.size()) {
        alive = SendChunk(fd, reader, frame.bytes.substr(off), &bad_lines);
      }
      if (frame.malformed) ++malformed;
      if (frame.kills_connection && alive) {
        // One error response, then EOF — bounded wait, never a hang.
        DrainResponses(reader, 200, &bad_lines);
        alive = false;
      }
      ASSERT_LE(bad_lines, 5u) << "server is emitting malformed responses";
    }
    if (alive) DrainResponses(reader, 100, &bad_lines);
    ::close(fd);
  }

  EXPECT_GE(malformed, kMalformedTarget);
  EXPECT_EQ(bad_lines, 0u);

  // The server survived the ordeal: a fresh, well-formed request round-trips.
  int fd = ConnectLoopback(loop.port());
  ASSERT_GE(fd, 0);
  Json req = Json::Object();
  req.Set("id", static_cast<int64_t>(424242));
  req.Set("endpoint", "ping");
  req.Set("params", Json::Object());
  ASSERT_TRUE(SendAll(fd, req.Dump() + "\n"));
  LineReader reader{fd};
  auto line = reader.Next(5000);
  ASSERT_TRUE(line.has_value()) << "server unresponsive after fuzzing";
  auto resp = Json::Parse(*line);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->GetInt("id", -1), 424242);
  EXPECT_TRUE(resp->GetBool("ok", false));
  ::close(fd);

  auto stats = loop.stats();
  EXPECT_GE(stats.accepted, connections);
  EXPECT_GT(stats.protocol_errors, 0u) << "oversized frames never fired";
  EXPECT_GT(stats.responses_written, 0u);

  loop.Stop();
  server.Stop();
}

// A second, interleaving-focused pass: several sockets take turns sending
// fragments of different frames, so the per-connection framing state is
// exercised while neighbours make progress. Seeded and deterministic.
TEST_F(ProtocolFuzzTest, InterleavedFragmentsAcrossConnectionsStayIsolated) {
  ForecastServer server(system_);
  server.Start();
  EventLoopServer::Options lopt;
  lopt.max_line_bytes = 4096;
  EventLoopServer loop(&server, lopt);
  ASSERT_TRUE(loop.Start().ok());

  constexpr size_t kConns = 6;
  struct Peer {
    int fd = -1;
    LineReader reader;
    std::string pending;  // frame bytes not yet written
    size_t expected_ok = 0;
  };
  std::vector<Peer> peers(kConns);
  for (size_t i = 0; i < kConns; ++i) {
    peers[i].fd = ConnectLoopback(loop.port());
    ASSERT_GE(peers[i].fd, 0);
    ASSERT_TRUE(SetNonBlocking(peers[i].fd));
    peers[i].reader.fd = peers[i].fd;
  }

  std::mt19937_64 rng(777);
  size_t bad_lines = 0;
  // Each peer sends 60 valid pings with its own id-space; fragments from
  // different peers interleave arbitrarily on the wire.
  constexpr size_t kPerPeer = 60;
  for (size_t round = 0; round < kPerPeer; ++round) {
    for (size_t i = 0; i < kConns; ++i) {
      Json req = Json::Object();
      req.Set("id", static_cast<int64_t>(i * 1000 + round));
      req.Set("endpoint", "ping");
      req.Set("params", Json::Object());
      peers[i].pending += req.Dump() + "\n";
      ++peers[i].expected_ok;
    }
    // Drip the pending bytes out in small randomized slices, round-robin.
    bool progress = true;
    while (progress) {
      progress = false;
      for (auto& p : peers) {
        if (p.pending.empty()) continue;
        size_t slice = 1 + static_cast<size_t>(rng() % 7);
        slice = std::min(slice, p.pending.size());
        ASSERT_TRUE(
            SendChunk(p.fd, p.reader, p.pending.substr(0, slice), &bad_lines));
        p.pending.erase(0, slice);
        progress = true;
      }
    }
  }

  // Every peer gets exactly its own responses, in its own order.
  for (size_t i = 0; i < kConns; ++i) {
    for (size_t r = 0; r < peers[i].expected_ok; ++r) {
      auto line = peers[i].reader.Next(5000);
      ASSERT_TRUE(line.has_value()) << "peer " << i << " response " << r;
      auto resp = Json::Parse(*line);
      ASSERT_TRUE(resp.ok());
      EXPECT_EQ(resp->GetInt("id", -1), static_cast<int64_t>(i * 1000 + r));
      EXPECT_TRUE(resp->GetBool("ok", false));
    }
    ::close(peers[i].fd);
  }
  EXPECT_EQ(bad_lines, 0u);
  loop.Stop();
  server.Stop();
}

// ---------------------------------------------------------------------------
// Router-directed edges: the cluster front-end must uphold the same
// well-formed-envelope contract while fanning out, forwarding, and failing
// over — malformed frames, unknown datasets, a shard primary SIGKILLed
// mid-pipeline, and the multi-kilobyte merged fan-out reply.
// ---------------------------------------------------------------------------

TEST(RouterProtocolFuzz, RouterEdgesAlwaysAnswerWellFormedEnvelopes) {
  const std::string work_dir =
      (std::filesystem::path(::testing::TempDir()) / "easytime_router_fuzz")
          .string();
  std::filesystem::remove_all(work_dir);
  cluster::ClusterRouter::Options opt;
  opt.worker_binary = EASYTIME_WORKER_BIN;
  opt.work_dir = work_dir;
  opt.shards = 1;
  opt.replicate = true;           // shard death degrades instead of erroring
  opt.health_interval_ms = 0.0;   // failover driven explicitly below
  opt.ship_interval_ms = 0.0;
  opt.retry.max_attempts = 2;
  opt.retry.base_delay_ms = 2.0;
  cluster::ClusterRouter router(opt);
  ASSERT_TRUE(router.Start().ok());

  int fd = ConnectLoopback(router.port());
  ASSERT_GE(fd, 0);
  LineReader reader;
  reader.fd = fd;

  auto expect_envelope = [&](const std::string& frame) -> Json {
    EXPECT_TRUE(SendAll(fd, frame));
    auto line = reader.Next(10000);
    EXPECT_TRUE(line.has_value()) << "no response for: " << frame;
    if (!line.has_value()) return Json::Object();
    auto resp = Json::Parse(*line);
    EXPECT_TRUE(resp.ok()) << "unparseable response: " << *line;
    EXPECT_TRUE(resp.ok() && resp->Has("ok")) << *line;
    return resp.ok() ? std::move(*resp) : Json::Object();
  };

  // Malformed frames: garbage, truncated JSON, type-confused envelopes.
  for (const char* frame :
       {"@@@@ not json @@@@\n", "{\"id\": 3, \"endpoint\": \"forec\n",
        "{\"id\": \"x\", \"endpoint\": 17, \"params\": []}\n",
        "{\"endpoint\": \"append\", \"params\": {\"dataset\": 42}}\n"}) {
    Json resp = expect_envelope(frame);
    EXPECT_FALSE(resp.GetBool("ok", true)) << frame;
    EXPECT_NE(resp.Get("error").GetString("code", ""), "") << frame;
  }

  // Unknown dataset routes to its owner and surfaces the owner's NotFound.
  Json missing = expect_envelope(
      R"({"id": 5, "endpoint": "forecast", "params": )"
      R"({"dataset": "phantom_ds", "method": "ses", "horizon": 4}})"
      "\n");
  EXPECT_FALSE(missing.GetBool("ok", true));
  EXPECT_EQ(missing.Get("error").GetString("code", ""), "NotFound");

  // The merged stats fan-out is the largest reply the router builds; it
  // must come back as one well-formed line.
  Json stats = expect_envelope(R"({"id": 6, "endpoint": "stats"})" "\n");
  EXPECT_TRUE(stats.GetBool("ok", false));
  EXPECT_EQ(stats.Get("result").GetString("scope", ""), "cluster");

  // Mid-pipeline shard death: queue several dataset reads, SIGKILL the
  // primary under them, and require every response to still be a valid
  // envelope — ok (possibly degraded via the replica) or a clean error,
  // never silence or garbage.
  std::string burst;
  for (int i = 0; i < 8; ++i) {
    burst += R"({"id": )" + std::to_string(100 + i) +
             R"(, "endpoint": "forecast", "params": )"
             R"({"dataset": "traffic_u0", "method": "ses", "horizon": 4}})"
             "\n";
  }
  ASSERT_TRUE(SendAll(fd, burst.substr(0, burst.size() / 2)));
  ASSERT_TRUE(router.KillShardPrimary("shard-0", SIGKILL).ok());
  ASSERT_TRUE(SendAll(fd, burst.substr(burst.size() / 2)));
  size_t degraded = 0;
  for (int i = 0; i < 8; ++i) {
    auto line = reader.Next(15000);
    ASSERT_TRUE(line.has_value()) << "response " << i << " never arrived";
    auto resp = Json::Parse(*line);
    ASSERT_TRUE(resp.ok()) << *line;
    ASSERT_TRUE(resp->Has("ok")) << *line;
    if (resp->GetBool("ok", false) &&
        resp->Get("result").GetBool("degraded", false)) {
      ++degraded;
    }
    if (!resp->GetBool("ok", false)) {
      EXPECT_EQ(resp->Get("error").GetString("code", ""), "Unavailable")
          << *line;
    }
  }
  EXPECT_GT(degraded, 0u) << "replica never served a degraded read";

  // The router itself is still fully alive.
  Json pong = expect_envelope(R"({"id": 7, "endpoint": "ping"})" "\n");
  EXPECT_TRUE(pong.GetBool("ok", false));

  ::close(fd);
  router.Stop();
}

}  // namespace
}  // namespace easytime::serve
