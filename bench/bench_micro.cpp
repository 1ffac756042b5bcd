// Experiment M2 (DESIGN.md §3): throughput of the evaluation and data
// layers — metric computation, characteristics extraction, generation,
// scaling, and the TS2Vec forward pass. google-benchmark binary.

#include <benchmark/benchmark.h>

#include <cmath>
#include <string>

#include "cluster/worker.h"
#include "common/fault.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/rng.h"
#include "core/easytime.h"
#include "ensemble/ts2vec.h"
#include "eval/metrics.h"
#include "nn/gru.h"
#include "nn/matrix.h"
#include "serve/request.h"
#include "serve/retry.h"
#include "tsdata/characteristics.h"
#include "tsdata/generator.h"
#include "tsdata/scaler.h"

using namespace easytime;

namespace {

std::vector<double> DemoSeries(size_t n) {
  tsdata::GeneratorConfig cfg;
  cfg.length = n;
  cfg.period = 24;
  cfg.season_amp = 5.0;
  cfg.trend_slope = 0.02;
  cfg.noise_std = 0.8;
  cfg.seed = 3;
  return tsdata::GenerateSeries(cfg).values();
}

void BM_MetricsSuite(benchmark::State& state) {
  auto actual = DemoSeries(static_cast<size_t>(state.range(0)));
  auto pred = actual;
  for (auto& v : pred) v += 0.1;
  eval::MetricContext ctx;
  ctx.train = actual;
  ctx.period = 24;
  const std::vector<std::string> names = {"mae", "rmse", "smape", "mase"};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        eval::MetricRegistry::Global().ComputeAll(names, actual, pred, ctx));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MetricsSuite)->Arg(256)->Arg(2048);

void BM_DetectPeriod(benchmark::State& state) {
  auto v = DemoSeries(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(tsdata::DetectPeriod(v));
  }
}
BENCHMARK(BM_DetectPeriod)->Arg(512)->Arg(4096);

void BM_ExtractCharacteristics(benchmark::State& state) {
  auto v = DemoSeries(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(tsdata::ExtractCharacteristics(v));
  }
}
BENCHMARK(BM_ExtractCharacteristics)->Arg(512)->Arg(2048);

void BM_GenerateSeries(benchmark::State& state) {
  tsdata::GeneratorConfig cfg;
  cfg.length = static_cast<size_t>(state.range(0));
  cfg.period = 24;
  cfg.season_amp = 5.0;
  cfg.seed = 11;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tsdata::GenerateSeries(cfg));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GenerateSeries)->Arg(512)->Arg(8192);

void BM_ZScoreScaler(benchmark::State& state) {
  auto v = DemoSeries(4096);
  tsdata::ZScoreScaler scaler;
  (void)scaler.Fit(v);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scaler.Transform(v));
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_ZScoreScaler);

void BM_Ts2VecEncode(benchmark::State& state) {
  ensemble::Ts2VecOptions opt;
  opt.repr_dim = 16;
  opt.hidden_dim = 24;
  opt.depth = 3;
  ensemble::Ts2VecEncoder enc(opt);
  auto v = DemoSeries(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(enc.Represent(v));
  }
}
BENCHMARK(BM_Ts2VecEncode)->Arg(128)->Arg(512);

// --- Kernel / training-path benchmarks (PR 1). The *Naive cases run the
// seed's reference kernel so the blocked-GEMM speedup is visible in one
// report; BM_Ts2VecTrainEpoch matches the pre-PR harness workload so its
// wall time is comparable across revisions.

void GemmOperands(size_t n, nn::Matrix* a, nn::Matrix* b) {
  Rng rng(1);
  *a = nn::Matrix::Gaussian(n, n, 1.0, &rng);
  *b = nn::Matrix::Gaussian(n, n, 1.0, &rng);
}

void BM_GemmSmall(benchmark::State& state) {
  nn::Matrix a, b, out;
  GemmOperands(64, &a, &b);
  for (auto _ : state) {
    nn::MatMulInto(a, b, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * 64 * 64 * 64);
}
BENCHMARK(BM_GemmSmall);

void BM_GemmSmallNaive(benchmark::State& state) {
  nn::Matrix a, b;
  GemmOperands(64, &a, &b);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.MatMulNaive(b));
  }
  state.SetItemsProcessed(state.iterations() * 2 * 64 * 64 * 64);
}
BENCHMARK(BM_GemmSmallNaive);

void BM_GemmLarge(benchmark::State& state) {
  nn::Matrix a, b, out;
  GemmOperands(256, &a, &b);
  for (auto _ : state) {
    nn::MatMulInto(a, b, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * 256 * 256 * 256);
}
BENCHMARK(BM_GemmLarge);

// --- Fast-tier kernel benchmarks (DESIGN.md §10). Same workloads as the
// bit-exact cases above, run under MatrixMode::kFast (FMA-contracted fp64),
// so BENCH_micro.json records both numeric tiers side by side.

void BM_GemmLargeFast(benchmark::State& state) {
  nn::ScopedMatrixMode mode(nn::MatrixMode::kFast);
  nn::Matrix a, b, out;
  GemmOperands(256, &a, &b);
  for (auto _ : state) {
    nn::MatMulInto(a, b, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * 256 * 256 * 256);
}
BENCHMARK(BM_GemmLargeFast);

// Registered after the tier pair on purpose: the ref-vs-fast ratio is the
// tracked number, so those two run back to back instead of with the
// multi-second naive sweep between them.
void BM_GemmLargeNaive(benchmark::State& state) {
  nn::Matrix a, b;
  GemmOperands(256, &a, &b);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.MatMulNaive(b));
  }
  state.SetItemsProcessed(state.iterations() * 2 * 256 * 256 * 256);
}
BENCHMARK(BM_GemmLargeNaive);

void BM_GemmSmallFast(benchmark::State& state) {
  nn::ScopedMatrixMode mode(nn::MatrixMode::kFast);
  nn::Matrix a, b, out;
  GemmOperands(64, &a, &b);
  for (auto _ : state) {
    nn::MatMulInto(a, b, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * 64 * 64 * 64);
}
BENCHMARK(BM_GemmSmallFast);

void BM_GruStep(benchmark::State& state) {
  Rng rng(2);
  nn::Gru gru(1, 32, &rng);
  nn::Matrix x = nn::Matrix::Gaussian(64, 1, 1.0, &rng);
  nn::Matrix g = nn::Matrix::Gaussian(64, 32, 0.1, &rng);
  nn::Matrix h, dx;
  for (auto _ : state) {
    gru.ForwardInto(x, &h);
    gru.BackwardInto(g, &dx);
    benchmark::DoNotOptimize(dx.data());
  }
}
BENCHMARK(BM_GruStep);

void RunTs2VecTrainEpoch(benchmark::State& state) {
  ensemble::Ts2VecOptions opt;
  opt.repr_dim = 16;
  opt.hidden_dim = 24;
  opt.depth = 3;
  opt.crop_length = 64;
  opt.batch_size = 8;
  opt.epochs = 1;
  opt.seed = 9;
  std::vector<std::vector<double>> corpus;
  for (uint64_t s = 0; s < 16; ++s) {
    Rng rng(s + 1);
    std::vector<double> v(160);
    for (size_t i = 0; i < v.size(); ++i) {
      v[i] = std::sin(static_cast<double>(i) * 0.26) + rng.Gaussian(0.0, 0.3);
    }
    corpus.push_back(std::move(v));
  }
  for (auto _ : state) {
    ensemble::Ts2VecEncoder enc(opt);
    auto r = ensemble::PretrainTs2Vec(&enc, corpus);
    if (!r.ok()) state.SkipWithError("pretrain failed");
    benchmark::DoNotOptimize(r);
  }
}

void BM_Ts2VecTrainEpoch(benchmark::State& state) {
  nn::ScopedMatrixMode mode(nn::MatrixMode::kReference);
  RunTs2VecTrainEpoch(state);
}
BENCHMARK(BM_Ts2VecTrainEpoch);

void BM_Ts2VecTrainEpochFast(benchmark::State& state) {
  nn::ScopedMatrixMode mode(nn::MatrixMode::kFast);
  RunTs2VecTrainEpoch(state);
}
BENCHMARK(BM_Ts2VecTrainEpochFast);

// First use of the Automated Ensemble, the number the numeric tiers are
// judged by end to end: each iteration creates a fresh system from the
// "small" preset with timing paused (Create does no training) and times its
// first Recommend, which runs the offline phase (TS2Vec pretrain, classifier
// fit) and then answers. Real time, because pretraining may fan out on the
// global pool.
void RunFirstRecommend(benchmark::State& state) {
  auto options = cluster::PresetOptions("small");
  if (!options.ok()) {
    state.SkipWithError(options.status().ToString().c_str());
    return;
  }
  // Create and the first Recommend log several INFO lines each; one
  // iteration per Create would bury the report.
  const LogLevel log_level = Logging::GetLevel();
  Logging::SetLevel(LogLevel::kWarning);
  for (auto _ : state) {
    state.PauseTiming();
    auto system = core::EasyTime::Create(*options);
    if (!system.ok()) {
      state.SkipWithError(system.status().ToString().c_str());
      break;
    }
    const std::string dataset = (*system)->repository()->names()[0];
    state.ResumeTiming();
    auto rec = (*system)->Recommend(dataset);
    state.PauseTiming();
    if (!rec.ok()) {
      state.SkipWithError(rec.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(rec);
    system->reset();  // teardown stays outside the timed region
    state.ResumeTiming();
  }
  Logging::SetLevel(log_level);
}

void BM_FirstRecommend(benchmark::State& state) {
  nn::ScopedMatrixMode mode(nn::MatrixMode::kReference);
  RunFirstRecommend(state);
}
BENCHMARK(BM_FirstRecommend)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_FirstRecommendFast(benchmark::State& state) {
  nn::ScopedMatrixMode mode(nn::MatrixMode::kFast);
  RunFirstRecommend(state);
}
BENCHMARK(BM_FirstRecommendFast)->Unit(benchmark::kMillisecond)->UseRealTime();

// Fault points are compiled into production paths permanently; the unarmed
// check must stay in the ~1ns range (a single relaxed atomic load) so that
// leaving them in costs nothing.
Status GuardedNoop() {
  EASYTIME_FAULT_POINT("bench.micro.fault");
  return Status::OK();
}

void BM_FaultPointUnarmed(benchmark::State& state) {
  FaultRegistry::Global().DisarmAll();
  for (auto _ : state) {
    Status s = GuardedNoop();
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_FaultPointUnarmed);

// With any point armed the gate opens and checks take the registry mutex;
// this bounds the slow path (rate 0 so nothing ever fires).
void BM_FaultPointArmedRateZero(benchmark::State& state) {
  FaultSpec spec;
  spec.rate = 0.0;
  (void)FaultRegistry::Global().Arm("bench.micro.fault", spec);
  for (auto _ : state) {
    Status s = GuardedNoop();
    benchmark::DoNotOptimize(s);
  }
  FaultRegistry::Global().DisarmAll();
}
BENCHMARK(BM_FaultPointArmedRateZero);

// Every router forward runs under RetryCall and almost always succeeds on
// the first try; that path should cost no more than the call it wraps (no
// jitter RNG is seeded unless a backoff is actually taken).
void BM_RetryCallFirstTrySuccess(benchmark::State& state) {
  serve::RetryPolicy policy;  // seed 0: random_device when a backoff is due
  for (auto _ : state) {
    Status s = serve::RetryCall(policy, [] { return Status::OK(); });
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_RetryCallFirstTrySuccess);

// DemoSeries shifted to the level of an uploaded series and rounded to
// \p decimals; 17 keeps full precision.
std::vector<double> UploadLikeValues(size_t n, int decimals) {
  std::vector<double> values = DemoSeries(n);
  const double scale = std::pow(10.0, decimals);
  for (double& v : values) {
    v += 50.0;
    if (decimals < 17) v = std::round(v * scale) / scale;
  }
  return values;
}

// Every number a reply, cache key or stored record carries goes through
// AppendJsonNumber; /17 is a full-precision double (forecasts, metrics),
// /4 a 4-decimal upload value.
void BM_JsonFormatNumber(benchmark::State& state) {
  const std::vector<double> values =
      UploadLikeValues(1024, static_cast<int>(state.range(0)));
  std::string out;
  size_t i = 0;
  for (auto _ : state) {
    out.clear();
    AppendJsonNumber(values[i++ & 1023], &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_JsonFormatNumber)->Arg(17)->Arg(4);

// A forecast request line on an uploaded series of range(0) 4-decimal
// values, as a client sends it on the cold path.
std::string UploadRequestLine(size_t n) {
  Json values = Json::Array();
  for (double v : UploadLikeValues(n, 4)) values.Append(v);
  Json params = Json::Object();
  params.Set("values", std::move(values));
  params.Set("method", "theta");
  params.Set("horizon", 24);
  Json req = Json::Object();
  req.Set("id", 7);
  req.Set("endpoint", "forecast");
  req.Set("params", std::move(params));
  return req.Dump();
}

// The text-to-tree half of every request: mostly numbers in place and one
// node per value.
void BM_JsonParseRequest(benchmark::State& state) {
  const std::string line =
      UploadRequestLine(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto doc = Json::Parse(line);
    benchmark::DoNotOptimize(doc.ok());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(line.size()));
}
BENCHMARK(BM_JsonParseRequest)->Arg(300);

// Json::Parse plus the request envelope: "params" is moved out, not copied.
void BM_ParseRequest(benchmark::State& state) {
  const std::string line =
      UploadRequestLine(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto req = serve::ParseRequest(line, 0);
    benchmark::DoNotOptimize(req.ok());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(line.size()));
}
BENCHMARK(BM_ParseRequest)->Arg(300);

}  // namespace

BENCHMARK_MAIN();
