/// \file driver.cc
/// \brief The end-to-end benchmark driver: stands up the real serving stack,
/// drives it over loopback TCP from closed-loop connections, checks every
/// reply, and prints the metrics. See perfbench/README.md for the workloads,
/// the metrics and the traced-run recipe.
///
///   perfbench_driver --workload forecast_hot --seed 1 --seconds 10
///       --trace 0 --work-dir DIR [--trace-out FILE] [--source-sha SHA]
///
/// The last stdout line is one JSON object: correct, attempted, failed,
/// metrics. Lines before it are "# "-prefixed diagnostics.

#include <signal.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/router.h"
#include "cluster/worker.h"
#include "common/logging.h"
#include "core/easytime.h"
#include "loadgen.h"
#include "methods/registry.h"
#include "nn/matrix.h"
#include "serve/event_loop.h"
#include "serve/server.h"
#include "tsdata/generator.h"
#include "tsdata/series.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using easytime::Json;

/// Closed-loop connections, each with its own thread and request stream.
constexpr size_t kConnections = 2;
/// Segments of an untraced run, each with its own timed bring-up; setup_s
/// and cpu_ms_per_req are medians over them.
constexpr int kSetups = 12;
/// Horizon of every forecast request except the hot set's second horizon.
constexpr size_t kHorizon = 24;
const std::vector<std::string> kColdMethods = {"theta", "ses", "holt", "ar"};
/// Dataset i of ingest_mixed is forecast with method i % 3, one key each.
const std::vector<std::string> kIngestMethods = {"theta", "ses", "holt"};
/// Cap on replies kept per connection for the after-phase checks.
constexpr size_t kMaxSamples = 256;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
  std::string trace_out;
  std::string source_sha = "unknown";
};

// ----- shared helpers ---------------------------------------------------------

/// Rounds to 4 decimals, so request lines stay short and the value the
/// server parses is exactly the value the checker keeps.
double Round4(double v) { return std::round(v * 1e4) / 1e4; }

std::string ValuesJson(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i) out.push_back(',');
    out += FormatDouble(values[i]);
  }
  out.push_back(']');
  return out;
}

std::string ForecastLine(const std::string& source_json, const std::string& method,
                         size_t horizon) {
  return "{\"endpoint\":\"forecast\",\"params\":{" + source_json +
         ",\"method\":\"" + method + "\",\"horizon\":" + std::to_string(horizon) + "}}";
}

std::string DatasetForecastLine(const std::string& dataset, const std::string& method,
                                size_t horizon) {
  return ForecastLine("\"dataset\":\"" + dataset + "\"", method, horizon);
}

/// The methods rung: exactly what ForecastServer computes for a forecast
/// request without a "config" or "seed" (registry create, fit, forecast).
bool MethodsForecast(const std::string& method, const std::vector<double>& series,
                     size_t horizon, std::vector<double>* out) {
  auto forecaster = easytime::methods::MethodRegistry::Global().Create(method, Json::Object());
  if (!forecaster.ok()) return false;
  easytime::methods::FitContext ctx;
  ctx.horizon = horizon;
  ctx.seed = 42;
  if (!(*forecaster)->Fit(series, ctx).ok()) return false;
  auto forecast = (*forecaster)->Forecast(horizon);
  if (!forecast.ok()) return false;
  *out = std::move(*forecast);
  return true;
}

/// Extracts result.values; empty when absent or not all numbers.
std::vector<double> ReplyValues(const JVal& reply) {
  std::vector<double> out;
  const JVal* result = reply.Find("result");
  const JVal* values = result ? result->Find("values") : nullptr;
  if (values == nullptr || values->kind != JVal::Kind::kArr) return out;
  for (const JVal& v : values->arr) {
    if (v.kind != JVal::Kind::kNum) return {};
    out.push_back(v.num);
  }
  return out;
}

bool BitEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Common shape check of a forecast reply: exactly \p horizon finite values.
std::string CheckForecastShape(const std::vector<double>& values, size_t horizon) {
  if (values.size() != horizon) {
    return "forecast has " + std::to_string(values.size()) + " values, want " +
           std::to_string(horizon);
  }
  for (double v : values) {
    if (!std::isfinite(v)) return "forecast has a non-finite value";
  }
  return "";
}

std::string ErrorCode(const JVal& reply) {
  const JVal* error = reply.Find("error");
  std::string code = error ? error->Str("code") : std::string();
  return code.empty() ? "Unknown" : code;
}

/// The system every in-process workload serves: the cluster's "small"
/// preset (what every shard worker runs) at 4 univariate datasets per
/// domain (41 datasets), so bring-up is long enough to time steadily.
easytime::core::EasyTime::Options SystemOptions(const std::string& store_dir) {
  easytime::core::EasyTime::Options opt = *easytime::cluster::PresetOptions("small");
  opt.suite.univariate_per_domain = 4;
  opt.store_dir = store_dir;
  return opt;
}

const char* kSystemOptionsJson =
    "{\"preset\":\"small\",\"suite.univariate_per_domain\":4,"
    "\"serve\":\"ForecastServer::Options defaults\","
    "\"event_loop\":\"EventLoopServer::Options defaults\"}";

/// The 10 "<domain>_u<index>" dataset names.
std::vector<std::string> DomainDatasets(int index) {
  std::vector<std::string> out;
  for (int d = 0; d < easytime::tsdata::kNumDomains; ++d) {
    out.push_back(std::string(easytime::tsdata::DomainName(
                      static_cast<easytime::tsdata::Domain>(d))) +
                  "_u" + std::to_string(index));
  }
  return out;
}

// ----- serving counters -------------------------------------------------------

struct ServeCounters {
  double hits = 0, misses = 0, evictions = 0, tag_invalidations = 0;
  double batch_items = 0, batches = 0, shed = 0;

  void AddProcessStats(const JVal& stats) {
    if (const JVal* c = stats.Find("cache")) {
      hits += c->Num("hits");
      misses += c->Num("misses");
      evictions += c->Num("evictions");
      tag_invalidations += c->Num("tag_invalidations");
    }
    if (const JVal* b = stats.Find("batching")) {
      batch_items += b->Num("items");
      batches += b->Num("batches");
    }
    if (const JVal* a = stats.Find("admission")) shed += a->Num("shed_total");
  }
  ServeCounters operator-(const ServeCounters& o) const {
    ServeCounters d;
    d.hits = hits - o.hits;
    d.misses = misses - o.misses;
    d.evictions = evictions - o.evictions;
    d.tag_invalidations = tag_invalidations - o.tag_invalidations;
    d.batch_items = batch_items - o.batch_items;
    d.batches = batches - o.batches;
    d.shed = shed - o.shed;
    return d;
  }
};

// ----- workloads --------------------------------------------------------------

/// One request of a connection's sequence, with what the model predicts.
struct Op {
  bool append = false;
  std::string line;
  size_t key = 0;           ///< hot/routed key, or ingest dataset slot
  size_t horizon = kHorizon;
  bool expect_hit = false;  ///< the cache outcome the sequence implies
  size_t expect_invalidated = 0;  ///< ingest appends: entries the append drops
  uint64_t series_seed = 0;  ///< cold: regenerates the inline series
  std::vector<double> values;  ///< ingest append points
  size_t method = 0;
};

/// One rung call of the traced ladder: \p prep runs untimed before \p call.
struct RungCall {
  const char* metric;
  bool ladder;  ///< on the request's blocking path (a ladder rung)
  std::function<void()> prep;
  std::function<bool()> call;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual std::string OptionsJson() const = 0;
  /// Bring-up until ready, warm-up included (timed as setup_s).
  virtual bool BringUp(const std::string& dir, std::string* error) = 0;
  virtual void TearDown() = 0;
  virtual uint16_t port() const = 0;
  /// Runs once after bring-up, before any load: checker state that must
  /// not be built lazily from the connection threads.
  virtual void BeforeLoad() {}
  /// Connection \p c's next request. Called only after the previous reply
  /// of \p c came back (and went to OnReply when ok), so the model is current.
  virtual Op Next(size_t c) = 0;
  /// Checks one ok reply beyond the generic checks; "" when it holds.
  /// A failed request leaves the model unchanged: the server applies
  /// neither an append nor a cache insert that it did not acknowledge.
  virtual std::string OnReply(size_t c, const Op& op, const JVal& reply) = 0;
  virtual ServeCounters Counters() = 0;
  virtual void EventLoopCounters(double* dispatched, double* written) {
    *dispatched = *written = 0;
  }
  /// Checks after the load phase (sampled bit-equality, lengths).
  virtual std::vector<std::string> PostChecks() = 0;
  /// Peak RSS of every process serving the workload, in MB.
  virtual double PeakRssMb() { return ProcStatusKb("self", "VmHWM") / 1024.0; }
  /// Traced ladder samples (built after PostChecks).
  virtual std::vector<std::vector<RungCall>> RungSamples(size_t n) = 0;
  /// Counters of layers only this workload runs (traced run); the others
  /// read 0.
  virtual void LayerCounters(std::map<std::string, double>*) {}
  /// The layer a client round trip enters first.
  virtual const char* EntryRung() const { return "event_loop.request"; }
  /// Cache entries the acknowledged appends so far must have invalidated.
  virtual uint64_t expected_tag_invalidations() const { return 0; }
};

/// In-process serving stack: facade + ForecastServer + epoll front-end.
struct LocalStack {
  std::unique_ptr<easytime::core::EasyTime> system;
  std::unique_ptr<easytime::serve::ForecastServer> server;
  std::unique_ptr<easytime::serve::EventLoopServer> frontend;

  bool Start(const easytime::core::EasyTime::Options& opt, std::string* error) {
    auto created = easytime::core::EasyTime::Create(opt);
    if (!created.ok()) {
      *error = created.status().ToString();
      return false;
    }
    system = std::move(*created);
    server = std::make_unique<easytime::serve::ForecastServer>(system.get());
    server->Start();
    frontend = std::make_unique<easytime::serve::EventLoopServer>(
        server.get(), easytime::serve::EventLoopServer::Options());
    const easytime::Status started = frontend->Start();
    if (!started.ok()) {
      *error = started.ToString();
      return false;
    }
    return true;
  }
  void Stop() {
    if (frontend) frontend->Stop();
    if (server) server->Stop();
    frontend.reset();
    server.reset();
    system.reset();
  }
  ServeCounters Counters() const {
    ServeCounters c;
    JVal stats;
    if (server && ParseJson(server->StatsJson().Dump(), &stats)) c.AddProcessStats(stats);
    return c;
  }
};

/// A workload served by an in-process stack on the epoll front-end.
class LocalWorkload : public Workload {
 public:
  void TearDown() override { stack_.Stop(); }
  uint16_t port() const override { return stack_.frontend->port(); }
  ServeCounters Counters() override { return stack_.Counters(); }
  void EventLoopCounters(double* dispatched, double* written) override {
    const auto s = stack_.frontend->stats();
    *dispatched = static_cast<double>(s.requests_dispatched);
    *written = static_cast<double>(s.responses_written);
  }

 protected:
  LocalStack stack_;
  LineClient rung_client_;  ///< the ladder's TCP rung
};

/// Sends each line once over one connection; every reply must be ok.
bool WarmLines(uint16_t port, const std::vector<std::string>& lines, std::string* error) {
  LineClient client;
  if (!client.Connect(port)) {
    *error = "warm-up connect failed";
    return false;
  }
  std::string reply;
  JVal parsed;
  for (const std::string& line : lines) {
    parsed = JVal();
    if (!client.RoundTrip(line, &reply) || !ParseJson(reply, &parsed) || !parsed.Bool("ok")) {
      *error = "warm-up request failed: " + reply;
      return false;
    }
  }
  return true;
}

/// The hot key set shared by forecast_hot and routed_hot: every domain's
/// "_u0" dataset x 4 methods x 2 horizons = 80 keys, well under the
/// result cache's 256 entries.
struct HotKey {
  std::string dataset;
  std::string method;
  size_t horizon;
  std::string line;
  std::vector<double> expected;  ///< the methods rung on the served series
};

std::vector<HotKey> HotKeys() {
  std::vector<HotKey> keys;
  for (const std::string& ds : DomainDatasets(0)) {
    for (const std::string& m : kColdMethods) {
      for (size_t h : {size_t{12}, kHorizon}) {
        keys.push_back({ds, m, h, DatasetForecastLine(ds, m, h), {}});
      }
    }
  }
  return keys;
}

/// Hot traffic: a uniform seeded draw over the warmed key set; every timed
/// request must be a cache hit whose values equal the methods rung.
class HotTraffic {
 public:
  explicit HotTraffic(uint64_t seed) : rung_seed(StreamSeed(seed, 99)) {
    for (size_t c = 0; c < kConnections; ++c) rngs_.emplace_back(StreamSeed(seed, c));
  }
  std::vector<HotKey> keys = HotKeys();
  const uint64_t rung_seed;  ///< the ladder's draw over the key set

  Op Next(size_t c) {
    Op op;
    op.key = rngs_[c].Below(keys.size());
    op.line = keys[op.key].line;
    op.horizon = keys[op.key].horizon;
    op.expect_hit = true;
    return op;
  }
  std::string Check(const Op& op, const JVal& reply) const {
    const std::vector<double> values = ReplyValues(reply);
    std::string bad = CheckForecastShape(values, op.horizon);
    if (!bad.empty()) return bad;
    if (!BitEqual(values, keys[op.key].expected)) {
      return "hot reply differs from the methods rung for " + keys[op.key].line;
    }
    return "";
  }
  std::vector<std::string> Lines() const {
    std::vector<std::string> out;
    for (const HotKey& k : keys) out.push_back(k.line);
    return out;
  }

 private:
  std::vector<Rng> rngs_;
};

/// Times a single TCP round trip on \p client.
bool TcpRung(LineClient* client, const std::string& line) {
  std::string reply;
  JVal parsed;
  return client->RoundTrip(line, &reply) && ParseJson(reply, &parsed) && parsed.Bool("ok");
}

// ---- forecast_hot -------------------------------------------------------------

class ForecastHot : public LocalWorkload {
 public:
  explicit ForecastHot(uint64_t seed) : traffic_(seed) {}
  std::string OptionsJson() const override { return kSystemOptionsJson; }

  bool BringUp(const std::string&, std::string* error) override {
    if (!stack_.Start(SystemOptions(""), error)) return false;
    return WarmLines(stack_.frontend->port(), traffic_.Lines(), error);
  }

  void BeforeLoad() override { ComputeExpected(); }
  Op Next(size_t c) override { return traffic_.Next(c); }
  std::string OnReply(size_t, const Op& op, const JVal& reply) override {
    return traffic_.Check(op, reply);
  }
  std::vector<std::string> PostChecks() override { return {}; }

  std::vector<std::vector<RungCall>> RungSamples(size_t n) override {
    rung_client_.Connect(port());
    Rng rng(traffic_.rung_seed);
    std::vector<std::vector<RungCall>> out;
    for (size_t i = 0; i < n; ++i) {
      const HotKey& k = traffic_.keys[rng.Below(traffic_.keys.size())];
      auto* sys = stack_.system.get();
      auto* server = stack_.server.get();
      out.push_back({
          {"core.series_snapshot_ms", false, nullptr,
           [sys, &k] { return sys->SeriesSnapshot(k.dataset).ok(); }},
          {"methods.fit_forecast_ms", false, nullptr,
           [this, &k] { std::vector<double> f; return MethodsForecast(k.method, Series(k.dataset), k.horizon, &f); }},
          {"serve.handle_line_ms", true, nullptr,
           [server, &k] { return server->HandleLine(k.line).find("\"ok\":true") != std::string::npos; }},
          {"event_loop.rtt_ms", true, nullptr, [this, &k] { return TcpRung(&rung_client_, k.line); }},
      });
    }
    return out;
  }

 private:
  const std::vector<double>& Series(const std::string& dataset) {
    auto it = series_.find(dataset);
    if (it == series_.end()) {
      auto snap = stack_.system->SeriesSnapshot(dataset);
      it = series_.emplace(dataset, snap.ok() ? snap->values() : std::vector<double>()).first;
    }
    return it->second;
  }
  void ComputeExpected() {
    for (HotKey& k : traffic_.keys) MethodsForecast(k.method, Series(k.dataset), k.horizon, &k.expected);
  }

  HotTraffic traffic_;
  std::map<std::string, std::vector<double>> series_;
};

// ---- forecast_cold ------------------------------------------------------------

/// A seeded inline series of 200-400 points: level, trend, one seasonal
/// cycle and noise, rounded to 4 decimals.
std::vector<double> ColdSeries(uint64_t seed) {
  Rng rng(seed);
  const size_t n = 200 + rng.Below(201);
  const double period = rng.Below(2) ? 24.0 : 12.0;
  const double level = 50.0 + 50.0 * rng.Uniform();
  const double trend = 0.05 * rng.Normal();
  const double amp = 5.0 + 10.0 * rng.Uniform();
  const double noise = 1.0 + 2.0 * rng.Uniform();
  std::vector<double> v(n);
  for (size_t t = 0; t < n; ++t) {
    v[t] = Round4(level + trend * static_cast<double>(t) +
                  amp * std::sin(6.283185307179586 * static_cast<double>(t) / period) +
                  noise * rng.Normal());
  }
  return v;
}

class ForecastCold : public LocalWorkload {
 public:
  explicit ForecastCold(uint64_t seed) {
    for (size_t c = 0; c < kConnections; ++c) rngs_.emplace_back(StreamSeed(seed, c));
    samples_.resize(kConnections);
    rung_rng_seed_ = StreamSeed(seed, 99);
    // Bring-up warms the miss path with a fixed set of uploads, the same
    // for every seed, so set-up does the same work in every run.
    Rng warm(kColdWarmSeed);
    for (size_t i = 0; i < kColdWarmLines; ++i) warm_lines_.push_back(Make(warm).line);
  }
  std::string OptionsJson() const override { return kSystemOptionsJson; }
  bool BringUp(const std::string&, std::string* error) override {
    if (!stack_.Start(SystemOptions(""), error)) return false;
    return WarmLines(stack_.frontend->port(), warm_lines_, error);
  }

  Op Next(size_t c) override { return Make(rngs_[c]); }

  std::string OnReply(size_t c, const Op& op, const JVal& reply) override {
    const std::vector<double> values = ReplyValues(reply);
    std::string bad = CheckForecastShape(values, op.horizon);
    if (!bad.empty()) return bad;
    // Every 16th reply is re-derived through the methods rung afterwards.
    if (++seen_[c] % 16 == 0 && samples_[c].size() < kMaxSamples) {
      samples_[c].push_back({op.series_seed, op.method, values});
    }
    return "";
  }
  std::vector<std::string> PostChecks() override {
    std::vector<std::string> bad;
    size_t checked = 0;
    for (const auto& per_conn : samples_) {
      for (const Sample& s : per_conn) {
        std::vector<double> expected;
        if (!MethodsForecast(kColdMethods[s.method], ColdSeries(s.series_seed), kHorizon, &expected) ||
            !BitEqual(expected, s.values)) {
          bad.push_back("cold reply differs from the methods rung (series seed " +
                        std::to_string(s.series_seed) + ")");
        }
        ++checked;
      }
    }
    if (checked == 0) bad.push_back("no cold reply was sampled for the methods-rung check");
    for (auto& per_conn : samples_) per_conn.clear();
    return bad;
  }

  std::vector<std::vector<RungCall>> RungSamples(size_t n) override {
    rung_client_.Connect(port());
    Rng rng(rung_rng_seed_);
    auto* server = stack_.server.get();
    // A miss every time: the cache is flushed before each serving rung call.
    auto flush = [server] { server->HandleLine("{\"endpoint\":\"flush_cache\"}"); };
    std::vector<std::vector<RungCall>> out;
    for (size_t i = 0; i < n; ++i) {
      Op op = Make(rng);
      auto series = std::make_shared<std::vector<double>>(ColdSeries(op.series_seed));
      auto line = std::make_shared<std::string>(op.line);
      const std::string method = kColdMethods[op.method];
      out.push_back({
          {"methods.fit_forecast_ms", true, nullptr,
           [series, method] { std::vector<double> f; return MethodsForecast(method, *series, kHorizon, &f); }},
          {"serve.handle_line_ms", true, flush,
           [server, line] { return server->HandleLine(*line).find("\"ok\":true") != std::string::npos; }},
          {"event_loop.rtt_ms", true, flush, [this, line] { return TcpRung(&rung_client_, *line); }},
      });
    }
    return out;
  }

 private:
  struct Sample {
    uint64_t series_seed;
    size_t method;
    std::vector<double> values;
  };
  Op Make(Rng& rng) {
    Op op;
    op.series_seed = rng.Next();
    op.method = rng.Below(kColdMethods.size());
    op.expect_hit = false;
    op.line = ForecastLine("\"values\":" + ValuesJson(ColdSeries(op.series_seed)),
                           kColdMethods[op.method], kHorizon);
    return op;
  }

  static constexpr uint64_t kColdWarmSeed = 0x5e7u;
  static constexpr size_t kColdWarmLines = 80;

  std::vector<Rng> rngs_;
  uint64_t rung_rng_seed_ = 0;
  std::vector<std::string> warm_lines_;
  size_t seen_[kConnections] = {};
  std::vector<std::vector<Sample>> samples_;
};

// ---- ingest_mixed -------------------------------------------------------------

/// Durable appends interleaved with forecasts. Connection c owns every
/// other dataset of the "_u1".."_u3" families (15 each), so cache hits
/// and misses follow from its own sequence alone: an acknowledged append
/// drops its dataset's cached forecast, the next forecast on it misses, and
/// later ones hit. With one forecast key per dataset and three forecasts per
/// append, ~56% of requests are hits, so the median request is a hit
/// rather than an append's fsync (perfbench/README.md).
class IngestMixed : public LocalWorkload {
 public:
  explicit IngestMixed(uint64_t seed) {
    std::vector<std::string> all;
    for (int family = 1; family <= 3; ++family) {
      for (const std::string& d : DomainDatasets(family)) all.push_back(d);
    }
    conns_.resize(kConnections);
    for (size_t c = 0; c < kConnections; ++c) {
      conns_[c].rng = Rng(StreamSeed(seed, c));
      for (size_t i = c; i < all.size(); i += kConnections) {
        DatasetState ds;
        ds.name = all[i];
        ds.method = i % kIngestMethods.size();
        conns_[c].datasets.push_back(std::move(ds));
      }
    }
    rung_seed_ = StreamSeed(seed, 99);
  }
  std::string OptionsJson() const override {
    std::string opts = kSystemOptionsJson;
    opts.pop_back();
    return opts +
           ",\"store_dir\":\"<work-dir>/stack-<n>\",\"store_sync_every_append\":true,"
           "\"append_log\":\"fsync every append, group commit across datasets\","
           "\"append_compact_every\":256}";
  }

  bool BringUp(const std::string& dir, std::string* error) override {
    if (!stack_.Start(SystemOptions(dir), error)) return false;
    std::vector<std::string> lines;
    for (ConnState& cs : conns_) {
      for (DatasetState& ds : cs.datasets) {
        auto snap = stack_.system->SeriesSnapshot(ds.name);
        if (!snap.ok()) {
          *error = snap.status().ToString();
          return false;
        }
        ds.base = snap->values();
        ds.appended.clear();
        double mean = 0, sq = 0;
        for (double v : ds.base) mean += v;
        mean /= static_cast<double>(ds.base.size());
        for (double v : ds.base) sq += (v - mean) * (v - mean);
        ds.mean = mean;
        ds.sd = std::sqrt(sq / static_cast<double>(ds.base.size()));
        ds.cached = true;
        lines.push_back(DatasetForecastLine(ds.name, kIngestMethods[ds.method], kHorizon));
      }
    }
    return WarmLines(stack_.frontend->port(), lines, error);
  }

  Op Next(size_t c) override {
    ConnState& cs = conns_[c];
    Op op = Make(cs.rng, cs, cs.position++ % 4 == 3);
    if (op.append) {
      op.expect_invalidated = cs.datasets[op.key].cached ? 1 : 0;
    } else {
      op.expect_hit = cs.datasets[op.key].cached;
    }
    return op;
  }

  std::string OnReply(size_t c, const Op& op, const JVal& reply) override {
    ConnState& cs = conns_[c];
    DatasetState& ds = cs.datasets[op.key];
    const JVal* result = reply.Find("result");
    if (result == nullptr) return "reply without a result";
    if (op.append) {
      ds.appended.insert(ds.appended.end(), op.values.begin(), op.values.end());
      ds.cached = false;
      ++cs.appends_acked;
      if (result->Bool("characteristics_refreshed")) ++cs.reprofiled;
      if (static_cast<size_t>(result->Num("length", -1)) != ds.base.size() + ds.appended.size()) {
        return "append acked length " + FormatDouble(result->Num("length", -1)) + " for " + ds.name +
               ", want " + std::to_string(ds.base.size() + ds.appended.size());
      }
      if (static_cast<size_t>(result->Num("cache_invalidated", -1)) != op.expect_invalidated) {
        return "append to " + ds.name + " invalidated " + FormatDouble(result->Num("cache_invalidated", -1)) +
               " entries, the sequence implies " + std::to_string(op.expect_invalidated);
      }
      cs.expected_tag_invalidations += op.expect_invalidated;
      return "";
    }
    ds.cached = true;
    const std::vector<double> values = ReplyValues(reply);
    std::string bad = CheckForecastShape(values, op.horizon);
    if (!bad.empty()) return bad;
    if (++cs.forecasts % 8 == 0 && cs.samples.size() < kMaxSamples) {
      cs.samples.push_back({op.key, op.method, ds.appended.size(), values});
    }
    return "";
  }


  std::vector<std::string> PostChecks() override {
    std::vector<std::string> bad;
    size_t checked = 0;
    for (ConnState& cs : conns_) {
      for (DatasetState& ds : cs.datasets) {
        auto snap = stack_.system->SeriesSnapshot(ds.name);
        const size_t want = ds.base.size() + ds.appended.size();
        if (!snap.ok() || snap->values().size() != want) {
          bad.push_back(ds.name + ": series length " +
                        (snap.ok() ? std::to_string(snap->values().size()) : snap.status().ToString()) +
                        " after the run, want base + acknowledged = " + std::to_string(want));
        }
      }
      for (const Sample& s : cs.samples) {
        const DatasetState& ds = cs.datasets[s.dataset];
        std::vector<double> series = ds.base;
        series.insert(series.end(), ds.appended.begin(), ds.appended.begin() + s.appended);
        std::vector<double> expected;
        if (!MethodsForecast(kIngestMethods[s.method], series, kHorizon, &expected) ||
            !BitEqual(expected, s.values)) {
          bad.push_back("ingest forecast on " + ds.name + " differs from the methods rung");
        }
        ++checked;
      }
      cs.samples.clear();  // they refer to this stack's appends
    }
    if (checked == 0) bad.push_back("no ingest forecast was sampled for the methods-rung check");
    return bad;
  }

  std::vector<std::vector<RungCall>> RungSamples(size_t n) override {
    rung_client_.Connect(port());
    Rng rng(rung_seed_);
    auto* sys = stack_.system.get();
    auto* server = stack_.server.get();
    std::vector<std::vector<RungCall>> out;
    for (size_t i = 0; i < n; ++i) {
      ConnState& cs = conns_[i % kConnections];
      Op op = Make(rng, cs, /*append=*/true);
      const std::string name = cs.datasets[op.key].name;
      const std::string method = kIngestMethods[cs.datasets[op.key].method];
      auto line = std::make_shared<std::string>(op.line);
      auto channels = std::make_shared<std::vector<std::vector<double>>>(1, op.values);
      auto series = std::make_shared<std::vector<double>>();
      out.push_back({
          {"core.series_snapshot_ms", false, nullptr, [sys, name] { return sys->SeriesSnapshot(name).ok(); }},
          {"methods.fit_forecast_ms", false,
           [sys, name, series] {
             auto snap = sys->SeriesSnapshot(name);
             *series = snap.ok() ? snap->values() : std::vector<double>();
           },
           [series, method] {
             std::vector<double> f;
             return MethodsForecast(method, *series, kHorizon, &f);
           }},
          {"core.append_ms", true, nullptr,
           [sys, name, channels] { return sys->AppendObservations(name, *channels).ok(); }},
          {"serve.handle_line_ms", true, nullptr,
           [server, line] { return server->HandleLine(*line).find("\"ok\":true") != std::string::npos; }},
          {"event_loop.rtt_ms", true, nullptr, [this, line] { return TcpRung(&rung_client_, *line); }},
      });
    }
    return out;
  }

  void LayerCounters(std::map<std::string, double>* m) override {
    const auto* log = stack_.system->append_log();
    if (log != nullptr) {
      const auto gc = log->group_commit_stats();
      (*m)["store.records_per_fsync"] =
          gc.batches ? static_cast<double>(gc.records) / static_cast<double>(gc.batches) : 0.0;
    }
    uint64_t acked = 0, reprofiled = 0;
    for (const ConnState& cs : conns_) {
      acked += cs.appends_acked;
      reprofiled += cs.reprofiled;
    }
    (*m)["knowledge.reprofile_share"] =
        acked ? static_cast<double>(reprofiled) / static_cast<double>(acked) : 0.0;
  }
  uint64_t expected_tag_invalidations() const override {
    uint64_t total = 0;
    for (const ConnState& cs : conns_) total += cs.expected_tag_invalidations;
    return total;
  }

 private:
  struct DatasetState {
    std::string name;
    std::vector<double> base;
    std::vector<double> appended;  ///< acknowledged points, in order
    size_t method = 0;             ///< index into kIngestMethods
    bool cached = false;           ///< its forecast is in the result cache
    double mean = 0, sd = 1;
  };
  struct Sample {
    size_t dataset;
    size_t method;
    size_t appended;  ///< acknowledged points when the forecast was served
    std::vector<double> values;
  };
  struct ConnState {
    Rng rng{0};
    uint64_t position = 0;
    uint64_t forecasts = 0;
    uint64_t appends_acked = 0;
    uint64_t reprofiled = 0;
    uint64_t expected_tag_invalidations = 0;
    std::vector<DatasetState> datasets;
    std::vector<Sample> samples;
  };

  static Op Make(Rng& rng, const ConnState& cs, bool append) {
    Op op;
    op.append = append;
    op.key = rng.Below(cs.datasets.size());
    const DatasetState& ds = cs.datasets[op.key];
    if (append) {
      const size_t points = 1 + rng.Below(2);
      for (size_t i = 0; i < points; ++i) op.values.push_back(Round4(ds.mean + ds.sd * rng.Normal()));
      op.line = "{\"endpoint\":\"append\",\"params\":{\"dataset\":\"" + ds.name +
                "\",\"values\":" + ValuesJson(op.values) + "}}";
    } else {
      op.method = ds.method;
      op.line = DatasetForecastLine(ds.name, kIngestMethods[op.method], kHorizon);
    }
    return op;
  }

  std::vector<ConnState> conns_;
  uint64_t rung_seed_ = 0;
};

// ---- routed_hot ---------------------------------------------------------------

/// forecast_hot's traffic through ClusterRouter at 2 shards, replicas off.
class RoutedHot : public Workload {
 public:
  explicit RoutedHot(uint64_t seed) : traffic_(seed) {}

  std::string OptionsJson() const override {
    return "{\"router\":{\"shards\":2,\"replicate\":false,\"preset\":\"small\","
           "\"work_dir\":\"<work-dir>/stack-<n>\",\"other\":\"ClusterRouter::Options defaults\"},"
           "\"workers\":\"easytime_shard_worker defaults (preset small)\"}";
  }

  bool BringUp(const std::string& dir, std::string* error) override {
    easytime::cluster::ClusterRouter::Options opt;
    opt.shards = 2;
    opt.replicate = false;
    opt.preset = "small";
    opt.worker_binary = PERFBENCH_WORKER_BIN;
    opt.work_dir = dir;
    router_ = std::make_unique<easytime::cluster::ClusterRouter>(opt);
    const easytime::Status started = router_->Start();
    if (!started.ok()) {
      *error = started.ToString();
      return false;
    }
    return WarmLines(router_->port(), traffic_.Lines(), error);
  }
  void TearDown() override {
    local_.Stop();
    direct_.clear();
    if (router_) router_->Stop();
    router_.reset();
  }
  uint16_t port() const override { return router_->port(); }

  void BeforeLoad() override { ComputeExpected(); }
  Op Next(size_t c) override { return traffic_.Next(c); }
  std::string OnReply(size_t, const Op& op, const JVal& reply) override {
    return traffic_.Check(op, reply);
  }

  ServeCounters Counters() override {
    ServeCounters c;
    LineClient client;
    std::string reply;
    JVal stats;
    if (!client.Connect(port()) || !client.RoundTrip("{\"endpoint\":\"stats\"}", &reply) ||
        !ParseJson(reply, &stats)) {
      return c;
    }
    const JVal* result = stats.Find("result");
    const JVal* shards = result ? result->Find("shards") : nullptr;
    if (shards == nullptr) return c;
    for (const auto& [id, shard] : shards->obj) c.AddProcessStats(shard);
    return c;
  }
  void LayerCounters(std::map<std::string, double>* m) override {
    JVal status;
    if (!ParseJson(router_->ClusterStatusJson().Dump(), &status)) return;
    if (const JVal* shards = status.Find("shards")) {
      for (const auto& [id, shard] : shards->obj) {
        (*m)["cluster.failovers"] += shard.Num("failovers");
        if (shard.Str("breaker") != "closed") (*m)["cluster.breakers_open"] += 1;
      }
    }
  }

  std::vector<std::string> PostChecks() override {
    // Every key once, routed and sent straight to its owning worker: the
    // two results must be the same bytes.
    std::vector<std::string> bad;
    LineClient routed;
    if (!routed.Connect(port())) return {"cannot reconnect to the router"};
    for (const HotKey& k : traffic_.keys) {
      LineClient* direct = Direct(k.dataset);
      std::string via_router, via_worker;
      JVal a, b;
      if (direct == nullptr || !routed.RoundTrip(k.line, &via_router) ||
          !direct->RoundTrip(k.line, &via_worker) || !ParseJson(via_router, &a) ||
          !ParseJson(via_worker, &b)) {
        bad.push_back("routed/direct comparison failed for " + k.line);
        continue;
      }
      const JVal* ra = a.Find("result");
      const JVal* rb = b.Find("result");
      if (ra == nullptr || rb == nullptr || ra->Str("method") != rb->Str("method") ||
          ra->Str("source") != rb->Str("source") || !BitEqual(ReplyValues(a), ReplyValues(b))) {
        bad.push_back("routed reply differs from the owning worker's for " + k.line);
      }
    }
    return bad;
  }

  double PeakRssMb() override {
    double kb = ProcStatusKb("self", "VmHWM");
    for (const std::string& pid : ChildPids()) kb += ProcStatusKb(pid, "VmHWM");
    return kb / 1024.0;
  }

  std::vector<std::vector<RungCall>> RungSamples(size_t n) override {
    // The serve rung runs on an in-process replica of a worker: the same
    // preset and suite, warmed with the same key set.
    std::string error;
    auto preset = easytime::cluster::PresetOptions("small");
    if (preset.ok() && local_.Start(*preset, &error)) WarmLines(local_.frontend->port(), traffic_.Lines(), &error);
    routed_client_.Connect(port());
    Rng rng(traffic_.rung_seed);
    auto* server = local_.server.get();
    std::vector<std::vector<RungCall>> out;
    for (size_t i = 0; i < n; ++i) {
      const HotKey& k = traffic_.keys[rng.Below(traffic_.keys.size())];
      auto* sys = local_.system.get();
      LineClient* direct = Direct(k.dataset);
      out.push_back({
          {"core.series_snapshot_ms", false, nullptr,
           [sys, &k] { return sys != nullptr && sys->SeriesSnapshot(k.dataset).ok(); }},
          {"methods.fit_forecast_ms", false, nullptr,
           [this, &k] { std::vector<double> f; return MethodsForecast(k.method, series_.at(k.dataset), k.horizon, &f); }},
          {"serve.handle_line_ms", true, nullptr,
           [server, &k] { return server != nullptr && server->HandleLine(k.line).find("\"ok\":true") != std::string::npos; }},
          {"event_loop.rtt_ms", true, nullptr, [direct, &k] { return direct != nullptr && TcpRung(direct, k.line); }},
          {"cluster.rtt_ms", true, nullptr, [this, &k] { return TcpRung(&routed_client_, k.line); }},
      });
    }
    return out;
  }
  const char* EntryRung() const override { return "cluster.request"; }

 private:
  /// A connection straight to \p dataset's owning worker.
  LineClient* Direct(const std::string& dataset) {
    auto owner = router_->OwnerShard(dataset);
    if (!owner.ok()) return nullptr;
    auto it = direct_.find(*owner);
    if (it != direct_.end()) return it->second.get();
    JVal status;
    if (!ParseJson(router_->ClusterStatusJson().Dump(), &status)) return nullptr;
    const JVal* shards = status.Find("shards");
    const JVal* shard = shards ? shards->Find(*owner) : nullptr;
    if (shard == nullptr) return nullptr;
    auto client = std::make_unique<LineClient>();
    if (!client->Connect(static_cast<uint16_t>(shard->Num("primary_port")))) return nullptr;
    return (direct_[*owner] = std::move(client)).get();
  }
  void ComputeExpected() {
    // The workers serve the "small" preset's deterministic suite.
    auto preset = easytime::cluster::PresetOptions("small");
    if (preset.ok()) {
      for (const auto& ds : easytime::tsdata::GenerateSuite(preset->suite)) {
        if (!ds.multivariate()) series_[ds.name()] = ds.channel(0).values();
      }
    }
    for (HotKey& k : traffic_.keys) {
      auto it = series_.find(k.dataset);
      if (it != series_.end()) MethodsForecast(k.method, it->second, k.horizon, &k.expected);
    }
  }

  HotTraffic traffic_;
  std::unique_ptr<easytime::cluster::ClusterRouter> router_;
  std::map<std::string, std::unique_ptr<LineClient>> direct_;
  std::map<std::string, std::vector<double>> series_;
  LocalStack local_;
  LineClient routed_client_;
};

// ----- the load phase ----------------------------------------------------------

/// The timed part of one load phase: requests started in it are measured.
struct Window {
  Clock::time_point start, end;
  double seconds() const { return std::chrono::duration<double>(end - start).count(); }
  bool Contains(Clock::time_point t) const { return t >= start && t <= end; }
};

struct ConnResult {
  Histogram latency[2];  ///< [0] forecasts, [1] appends; ok requests started in the window
  uint64_t attempted_forecast = 0, attempted_append = 0;
  uint64_t ok_forecast = 0, ok_append = 0;
  uint64_t predicted_hits = 0, predicted_misses = 0;
  std::map<std::string, uint64_t> failures;  ///< "op:code" -> count
  std::vector<std::string> violations;
  std::vector<Span> spans;
  double loadgen_cpu_s = 0;  ///< CPU of the connection thread(s) from the window's start

  void Add(const ConnResult& o) {
    latency[0].Merge(o.latency[0]);
    latency[1].Merge(o.latency[1]);
    attempted_forecast += o.attempted_forecast;
    attempted_append += o.attempted_append;
    ok_forecast += o.ok_forecast;
    ok_append += o.ok_append;
    predicted_hits += o.predicted_hits;
    predicted_misses += o.predicted_misses;
    for (const auto& [k, v] : o.failures) failures[k] += v;
    violations.insert(violations.end(), o.violations.begin(), o.violations.end());
    spans.insert(spans.end(), o.spans.begin(), o.spans.end());
    loadgen_cpu_s += o.loadgen_cpu_s;
  }
};

double StealShare(std::pair<uint64_t, uint64_t> from, std::pair<uint64_t, uint64_t> to) {
  return to.second > from.second ? static_cast<double>(to.first - from.first) /
                                       static_cast<double>(to.second - from.second)
                                 : 0.0;
}

struct PhaseResult {
  ConnResult all;
  double timed_s = 0;  ///< wall seconds of the timed windows
  /// CPU the serving side ran in the timed windows: this process less the
  /// load generator and the driver's own thread, plus every child process.
  double serve_cpu_s = 0;
  ServeCounters delta;
  double expected_tag_invalidations = 0;
  double dispatched = 0, written = 0;

  /// Adds \p o's timed requests, CPU and counts; the counter deltas stay
  /// per phase.
  void Append(const PhaseResult& o) {
    all.Add(o.all);
    timed_s += o.timed_s;
    serve_cpu_s += o.serve_cpu_s;
  }
  uint64_t timed() const { return all.latency[0].total() + all.latency[1].total(); }
  /// ok requests started per wall second of the timed windows.
  double throughput() const { return timed_s > 0 ? static_cast<double>(timed()) / timed_s : 0.0; }
  /// Latency of forecasts (0), appends (1) or both (-1).
  Histogram Latency(int which = -1) const {
    Histogram h;
    if (which != 1) h.Merge(all.latency[0]);
    if (which != 0) h.Merge(all.latency[1]);
    return h;
  }
  /// Serving CPU per ok request started in the timed windows, in ms.
  double CpuMsPerRequest() const {
    return timed() ? 1e3 * serve_cpu_s / static_cast<double>(timed()) : 0.0;
  }
};

void RunConnection(Workload* w, size_t c, uint16_t port, const Window& window, bool trace,
                   const char* span_name, ConnResult* out) {
  LineClient client;
  if (!client.Connect(port)) {
    ++out->failures["connect:ConnectionRefused"];
    return;
  }
  std::string reply;
  uint64_t seq = 0;
  double cpu0 = -1;
  for (Clock::time_point now = Clock::now(); now < window.end; now = Clock::now()) {
    if (cpu0 < 0 && now >= window.start) cpu0 = CpuSeconds(CLOCK_THREAD_CPUTIME_ID);
    const Op op = w->Next(c);
    const char* kind = op.append ? "append" : "forecast";
    ++(op.append ? out->attempted_append : out->attempted_forecast);
    const int64_t s0 = trace ? NowNs() : 0;
    const Clock::time_point t0 = Clock::now();
    const bool sent = client.RoundTrip(op.line, &reply);
    const Clock::time_point t1 = Clock::now();
    if (trace) out->spans.push_back({(static_cast<uint64_t>(c) << 40) | seq, span_name, "", s0, NowNs()});
    ++seq;
    if (!sent) {
      // No retry and no reconnect: the rest of this connection's sequence
      // is not sent, and the lost request counts as failed.
      ++out->failures[std::string(kind) + ":ConnectionLost"];
      break;
    }
    JVal parsed;
    if (!ParseJson(reply, &parsed)) {
      ++out->failures[std::string(kind) + ":UnparseableReply"];
      if (out->violations.size() < 8) out->violations.push_back("unparseable reply: " + reply.substr(0, 200));
      continue;
    }
    if (!parsed.Bool("ok")) {
      ++out->failures[std::string(kind) + ":" + ErrorCode(parsed)];
      continue;
    }
    std::string bad;
    if (!op.append) {
      if (parsed.Bool("cached") != op.expect_hit) {
        bad = std::string("reply cached=") + (parsed.Bool("cached") ? "true" : "false") +
              " but the sequence implies " + (op.expect_hit ? "a hit" : "a miss");
      }
      ++(op.expect_hit ? out->predicted_hits : out->predicted_misses);
    }
    const std::string checked = w->OnReply(c, op, parsed);
    if (bad.empty()) bad = checked;
    if (!bad.empty() && out->violations.size() < 8) out->violations.push_back(bad);
    ++(op.append ? out->ok_append : out->ok_forecast);
    if (window.Contains(t0)) out->latency[op.append ? 1 : 0].Add(MsBetween(t0, t1));
  }
  if (cpu0 >= 0) out->loadgen_cpu_s = CpuSeconds(CLOCK_THREAD_CPUTIME_ID) - cpu0;
}

PhaseResult RunPhase(Workload* w, double seconds, bool trace) {
  PhaseResult r;
  const ServeCounters before = w->Counters();
  const uint64_t tags_before = w->expected_tag_invalidations();
  double d0 = 0, w0 = 0;
  w->EventLoopCounters(&d0, &w0);
  auto after = [](Clock::time_point t, double s) {
    return t + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
  };
  const double warm = std::min(1.0, 0.1 * seconds);
  Window window;
  window.start = after(Clock::now(), warm);
  window.end = after(window.start, seconds - warm);
  std::vector<ConnResult> conns(kConnections);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back(RunConnection, w, c, w->port(), std::cref(window), trace, w->EntryRung(), &conns[c]);
  }
  // Serving CPU from the window's start until every connection is done;
  // the connection threads subtract their own share.
  std::this_thread::sleep_until(window.start);
  const std::vector<std::string> children = ChildPids();
  auto serving_cpu = [&children] {
    double s = CpuSeconds(CLOCK_PROCESS_CPUTIME_ID) - CpuSeconds(CLOCK_THREAD_CPUTIME_ID);
    for (const std::string& pid : children) s += TaskCpuSeconds(pid);
    return s;
  };
  const double cpu0 = serving_cpu();
  for (auto& t : threads) t.join();
  r.serve_cpu_s = serving_cpu() - cpu0;
  r.timed_s = window.seconds();
  for (const ConnResult& c : conns) r.all.Add(c);
  r.serve_cpu_s -= r.all.loadgen_cpu_s;
  r.delta = w->Counters() - before;
  r.expected_tag_invalidations = static_cast<double>(w->expected_tag_invalidations() - tags_before);
  double d1 = 0, w1 = 0;
  w->EventLoopCounters(&d1, &w1);
  r.dispatched = d1 - d0;
  r.written = w1 - w0;
  return r;
}

/// Checks the serving counters against what the sequences predict.
void CheckCounters(const PhaseResult& p, std::vector<std::string>* bad) {
  if (p.delta.shed != 0) bad->push_back("admission shed " + FormatDouble(p.delta.shed) + " requests");
  if (!p.all.failures.empty()) {
    // A failed request leaves the cache in a state the sequence cannot
    // predict; the failure itself is counted and reported instead.
    std::printf("# cache counter check skipped: %zu kinds of failed requests\n", p.all.failures.size());
    return;
  }
  if (p.delta.hits != static_cast<double>(p.all.predicted_hits) ||
      p.delta.misses != static_cast<double>(p.all.predicted_misses)) {
    bad->push_back("cache hits/misses " + FormatDouble(p.delta.hits) + "/" + FormatDouble(p.delta.misses) +
                   " but the sequences imply " + std::to_string(p.all.predicted_hits) + "/" +
                   std::to_string(p.all.predicted_misses));
  }
  if (p.delta.tag_invalidations != p.expected_tag_invalidations) {
    bad->push_back("cache tag invalidations " + FormatDouble(p.delta.tag_invalidations) +
                   " but the sequences imply " + FormatDouble(p.expected_tag_invalidations));
  }
}

// ----- the traced ladder -------------------------------------------------------

/// Per-layer metrics of the write path, which only ingest_mixed runs:
/// printed as diagnostics rather than in the result.
const std::set<std::string> kIngestOnlyMetrics = {"core.append_ms", "core.self_ms", "store.records_per_fsync",
                                                  "knowledge.reprofile_share",
                                                  "serve.cache_tag_invalidations"};

const std::vector<std::string> kRungMetrics = {"methods.fit_forecast_ms", "core.series_snapshot_ms",
                                               "core.append_ms", "serve.handle_line_ms",
                                               "event_loop.rtt_ms", "cluster.rtt_ms"};

/// Largest share by which the ladder's self-time sum may miss its top rung:
/// the widest bound an end-to-end metric may have.
constexpr double kLadderTolerance = 0.25;

std::string LayerOf(const std::string& metric) { return metric.substr(0, metric.find('.')); }

void MeasureRungs(Workload* w, double budget_s, std::vector<Span>* spans,
                  std::map<std::string, double>* m, std::vector<std::string>* bad) {
  auto samples = w->RungSamples(32);
  // times[i][k]: rung k's durations for sample i
  std::vector<std::vector<std::vector<double>>> times(samples.size());
  for (size_t i = 0; i < samples.size(); ++i) times[i].resize(samples[i].size());
  std::vector<double> handle_line_all;
  const Clock::time_point stop = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                                    std::chrono::duration<double>(budget_s));
  uint64_t request = 1ull << 62;
  size_t failures = 0;
  for (int rep = 0; rep < 400 && (rep < 3 || Clock::now() < stop); ++rep) {
    for (size_t i = 0; i < samples.size(); ++i, ++request) {
      // One request's pass up the ladder: a root span, and one child span
      // per rung call, named after the rung's metric.
      const int64_t root_start = NowNs();
      for (size_t k = 0; k < samples[i].size(); ++k) {
        RungCall& call = samples[i][k];
        if (call.prep) call.prep();
        const int64_t s0 = NowNs();
        const Clock::time_point t0 = Clock::now();
        const bool ok = call.call();
        const double ms = MsBetween(t0, Clock::now());
        spans->push_back({request, call.metric, "ladder.request", s0, NowNs()});
        if (!ok) ++failures;
        times[i][k].push_back(ms);
        if (std::strcmp(call.metric, "serve.handle_line_ms") == 0) handle_line_all.push_back(ms);
      }
      spans->push_back({request, "ladder.request", "", root_start, NowNs()});
    }
  }
  if (failures) bad->push_back(std::to_string(failures) + " rung calls failed");
  for (const std::string& metric : kRungMetrics) (*m)[metric] = 0.0;
  for (const char* layer : {"methods", "core", "serve", "event_loop", "cluster"}) {
    (*m)[std::string(layer) + ".self_ms"] = 0.0;
  }
  if (samples.empty()) return;
  // Per rung: median over samples of each sample's median over reps. Self
  // time of a ladder rung: its time minus the ladder rung below, per sample.
  std::vector<std::vector<double>> per_rung(samples[0].size());
  std::map<std::string, std::vector<double>> self;
  std::vector<double> top;
  for (size_t i = 0; i < samples.size(); ++i) {
    double below = 0.0;
    for (size_t k = 0; k < samples[i].size(); ++k) {
      const double t = Median(times[i][k]);
      per_rung[k].push_back(t);
      if (!samples[i][k].ladder) continue;
      self[LayerOf(samples[i][k].metric)].push_back(t - below);
      below = t;
    }
    top.push_back(below);
  }
  for (size_t k = 0; k < per_rung.size(); ++k) (*m)[samples[0][k].metric] = Median(per_rung[k]);
  double self_sum = 0.0;
  for (const auto& [layer, v] : self) {
    (*m)[layer + ".self_ms"] = Median(v);
    self_sum += Median(v);
    if (Median(v) < 0) {
      bad->push_back(layer + " self time is negative (" + FormatDouble(Median(v)) +
                     " ms): its rung is faster than the rung below it");
    }
  }
  const double top_ms = Median(top);
  (*m)["serve.handle_line_p99_ms"] = Percentile(handle_line_all, 0.99);
  (*m)["ladder.top_ms"] = top_ms;
  (*m)["ladder.self_sum_ms"] = self_sum;
  // Per sample the self times sum to the top rung exactly; their medians
  // may not, and must stay within the spread the end-to-end bounds allow.
  if (std::abs(top_ms - self_sum) > kLadderTolerance * top_ms) {
    bad->push_back("ladder self times sum to " + FormatDouble(self_sum) + " ms, the top rung reads " +
                   FormatDouble(top_ms) + " ms");
  }
  std::printf("# ladder: %zu samples x %zu reps; top rung %.4f ms, self times sum %.4f ms\n",
              samples.size(), times[0][0].size(), top_ms, self_sum);
}

// ----- main --------------------------------------------------------------------

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "forecast_hot") return std::make_unique<ForecastHot>(seed);
  if (name == "forecast_cold") return std::make_unique<ForecastCold>(seed);
  if (name == "ingest_mixed") return std::make_unique<IngestMixed>(seed);
  if (name == "routed_hot") return std::make_unique<RoutedHot>(seed);
  return nullptr;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a->seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") a->trace = v == "1";
    else if (k == "--work-dir") a->work_dir = v;
    else if (k == "--trace-out") a->trace_out = v;
    else if (k == "--source-sha") a->source_sha = v;
    else return false;
  }
  return argc % 2 == 1 && !a->workload.empty() && !a->work_dir.empty() && a->seconds > 0;
}

std::string Metric(const std::string& name, double value, const char* unit) {
  return "\"" + name + "\":{\"value\":" + FormatDouble(value) + ",\"unit\":\"" + unit + "\"}";
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload W --seed N --seconds S --trace 0|1 "
                 "--work-dir DIR [--trace-out FILE] [--source-sha SHA]\n");
    return 2;
  }
  std::unique_ptr<Workload> w = MakeWorkload(args.workload, args.seed);
  if (!w) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  ::signal(SIGPIPE, SIG_IGN);
  easytime::Logging::SetLevel(easytime::LogLevel::kWarning);
  std::error_code ec;
  fs::create_directories(args.work_dir, ec);

  const auto steal0 = CpuSteal();
  const unsigned nproc = std::thread::hardware_concurrency();
  std::printf(
      "# run {\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%s,\"trace\":%d,\"nproc\":%u,"
      "\"build_type\":\"%s\",\"kernel_tier\":%d,\"source_sha\":\"%s\",\"connections\":%zu,"
      "\"loadgen_threads\":%zu,\"loop\":\"closed\",\"setups\":%d,\"options\":%s}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      FormatDouble(args.seconds).c_str(), args.trace ? 1 : 0, nproc, PERFBENCH_BUILD_TYPE,
      static_cast<int>(easytime::nn::GetMatrixMode()), args.source_sha.c_str(), kConnections,
      kConnections, args.trace ? 1 : kSetups, w->OptionsJson().c_str());
  if (kConnections > nproc) std::printf("# warning: more connections than cores\n");

  // The untraced run is kSetups segments. Each brings the stack up (timed),
  // runs its share of the load, checks it and tears it down, so bring-ups
  // and load are spread over the whole run and its medians pass over a
  // burst of host noise, and the ingest store starts afresh in each. The
  // traced run is one segment: the same traffic untraced, then traced (the
  // throughput difference is the tracing overhead), then the rung ladder.
  const int segments = args.trace ? 1 : kSetups;
  std::vector<double> setup_s, cpu_ms_per_req, peak_rss_mb;  ///< per segment
  std::vector<std::string> bad;
  std::map<std::string, double> layer;
  std::vector<Span> spans;
  PhaseResult phase;  ///< every load phase
  std::string error;
  for (int k = 0; k < segments; ++k) {
    const std::string dir = args.work_dir + "/stack-" + std::to_string(k);
    fs::remove_all(dir, ec);
    fs::create_directories(dir, ec);
    // Each segment's own peak. Only the first one, in a fresh process, is
    // the result: later bring-ups start on the heap earlier segments freed
    // but the allocator kept, which a served system never re-creates.
    ResetPeakRss();
    const Clock::time_point t0 = Clock::now();
    if (!w->BringUp(dir, &error)) {
      std::fprintf(stderr, "bring-up failed: %s\n", error.c_str());
      w->TearDown();
      return 1;
    }
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    if (k == 0) w->BeforeLoad();

    PhaseResult traced;
    if (!args.trace) {
      const PhaseResult load = RunPhase(w.get(), args.seconds / segments, false);
      CheckCounters(load, &bad);
      cpu_ms_per_req.push_back(load.CpuMsPerRequest());
      phase.Append(load);
    } else {
      const PhaseResult plain = RunPhase(w.get(), 0.3 * args.seconds, false);
      CheckCounters(plain, &bad);
      traced = RunPhase(w.get(), 0.3 * args.seconds, true);
      CheckCounters(traced, &bad);
      layer["trace.overhead_pct"] = 100.0 * (plain.throughput() - traced.throughput()) / plain.throughput();
      phase.Append(plain);
      phase.Append(traced);
    }
    for (const std::string& v : w->PostChecks()) bad.push_back(v);
    peak_rss_mb.push_back(w->PeakRssMb());

    if (args.trace) {
      const ServeCounters& d = traced.delta;
      layer["serve.cache_hit_ratio"] = d.hits + d.misses ? d.hits / (d.hits + d.misses) : 0.0;
      layer["serve.cache_evictions"] = d.evictions;
      layer["serve.cache_tag_invalidations"] = d.tag_invalidations;
      layer["serve.batch_size_mean"] = d.batches ? d.batch_items / d.batches : 0.0;
      layer["serve.admission_shed"] = d.shed;
      layer["event_loop.requests_dispatched"] = traced.dispatched;
      layer["event_loop.responses_written"] = traced.written;
      for (const char* name : {"store.records_per_fsync", "knowledge.reprofile_share", "cluster.failovers",
                               "cluster.breakers_open"}) {
        layer[name] = 0.0;
      }
      w->LayerCounters(&layer);
      spans = std::move(traced.all.spans);
      MeasureRungs(w.get(), 0.4 * args.seconds, &spans, &layer, &bad);
      layer["trace.spans"] = static_cast<double>(spans.size());
      if (!args.trace_out.empty() && !WriteSpans(args.trace_out, spans)) {
        bad.push_back("cannot write spans to " + args.trace_out);
      }
    }
    w->TearDown();
  }
  for (const std::string& v : phase.all.violations) bad.push_back(v);
  fs::remove_all(args.work_dir, ec);

  const auto steal1 = CpuSteal();
  const double steal_share = StealShare(steal0, steal1);
  const ConnResult& a = phase.all;
  uint64_t failed = 0;
  for (const auto& [k, v] : a.failures) failed += v;
  const uint64_t attempted = a.attempted_forecast + a.attempted_append;

  std::printf("# noise {\"steal_ticks\":%llu,\"steal_share\":%.6f}\n",
              static_cast<unsigned long long>(steal1.first - steal0.first), steal_share);
  std::printf("# ops {\"forecast\":{\"attempted\":%llu,\"succeeded\":%llu},"
              "\"append\":{\"attempted\":%llu,\"succeeded\":%llu},\"failed_by_code\":{",
              static_cast<unsigned long long>(a.attempted_forecast),
              static_cast<unsigned long long>(a.ok_forecast),
              static_cast<unsigned long long>(a.attempted_append),
              static_cast<unsigned long long>(a.ok_append));
  bool first = true;
  for (const auto& [k, v] : a.failures) {
    std::printf("%s\"%s\":%llu", first ? "" : ",", k.c_str(), static_cast<unsigned long long>(v));
    first = false;
  }
  std::printf("}}\n");
  for (const auto& [name, v] : {std::pair{"setup_s", &setup_s}, {"cpu_ms_per_req", &cpu_ms_per_req},
                                {"peak_rss_mb", &peak_rss_mb}}) {
    std::printf("# segments %s", name);
    for (double x : *v) std::printf(" %.4f", x);
    std::printf("\n");
  }
  // Wall-clock throughput and latency are printed, not gated: on a shared
  // VM they follow the host's scheduling more than the program
  // (perfbench/README.md, "Why CPU per request").
  const Histogram latency = phase.Latency();
  std::printf("# wall throughput_rps %.6f 1/s, latency_p50_ms %.6f ms, latency_p99_ms %.6f ms "
              "(n=%llu requests in %.3f timed s)\n",
              phase.throughput(), latency.Quantile(0.5), latency.Quantile(0.99),
              static_cast<unsigned long long>(latency.total()), phase.timed_s);
  if (const Histogram appends = phase.Latency(1); appends.total() > 0) {
    // Per operation type: the appends' acknowledgement latency is the write
    // path's end-to-end number.
    const Histogram forecasts = phase.Latency(0);
    std::printf("# wall append_p50_ms %.6f ms, append_p99_ms %.6f ms (n=%llu); forecast_p50_ms %.6f ms, "
                "forecast_p99_ms %.6f ms (n=%llu)\n",
                appends.Quantile(0.5), appends.Quantile(0.99), static_cast<unsigned long long>(appends.total()),
                forecasts.Quantile(0.5), forecasts.Quantile(0.99),
                static_cast<unsigned long long>(forecasts.total()));
  }
  std::printf("# cpu serve_cpu_s %.6f over %llu timed requests; %zu bring-ups\n", phase.serve_cpu_s,
              static_cast<unsigned long long>(phase.timed()), setup_s.size());
  for (const std::string& b : bad) std::printf("# CHECK FAILED: %s\n", b.c_str());

  std::string metrics;
  if (!args.trace) {
    metrics = Metric("cpu_ms_per_req", Median(cpu_ms_per_req), "ms") + "," +
              Metric("setup_s", Median(setup_s), "s") + "," +
              Metric("peak_rss_mb", peak_rss_mb.front(), "MB");
  } else {
    for (const auto& [name, value] : layer) {
      const bool ms = name.size() > 3 && name.compare(name.size() - 3, 3, "_ms") == 0;
      const char* unit = ms ? "ms"
                         : name == "trace.overhead_pct" ? "%"
                         : (name.find("ratio") != std::string::npos || name.find("share") != std::string::npos ||
                            name.find("mean") != std::string::npos || name.find("per_") != std::string::npos)
                             ? "ratio"
                             : "count";
      if (kIngestOnlyMetrics.count(name)) {
        // The write path runs only on ingest_mixed, which BENCHMARK.json
        // does not list (README, "Known defect").
        std::printf("# layer %s %s %s\n", name.c_str(), FormatDouble(value).c_str(), unit);
        continue;
      }
      if (!metrics.empty()) metrics += ",";
      metrics += Metric(name, value, unit);
    }
  }
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{%s}}\n",
              bad.empty() ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
