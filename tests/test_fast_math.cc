// Relaxed-tolerance suite for the fast numeric tier (DESIGN.md §10). The
// reference tier's bit-exactness is pinned by test_determinism /
// test_matrix_kernels; here the contract is only a rel-err envelope of the
// FMA-contracted (kFast) kernels against the reference results, plus mode
// plumbing. The whole file must pass under any EASYTIME_FAST_MATH setting —
// every test pins the modes it compares explicitly via ScopedMatrixMode.

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include <unistd.h>

#include "common/logging.h"
#include "common/rng.h"
#include "ensemble/ts2vec.h"
#include "nn/gru.h"
#include "nn/matrix.h"

namespace easytime::nn {
namespace {

Matrix RandomMatrix(size_t rows, size_t cols, Rng* rng) {
  return Matrix::Gaussian(rows, cols, 1.0, rng);
}

/// max_i |a_i - b_i| / max(1, max_i |a_i|): relative to the magnitude of the
/// reference result so tiny absolute entries do not dominate.
double MaxRelErr(const Matrix& ref, const Matrix& got) {
  EXPECT_EQ(ref.rows(), got.rows());
  EXPECT_EQ(ref.cols(), got.cols());
  double scale = 1.0;
  for (size_t i = 0; i < ref.size(); ++i) {
    scale = std::max(scale, std::fabs(ref.data()[i]));
  }
  double err = 0.0;
  for (size_t i = 0; i < ref.size(); ++i) {
    err = std::max(err, std::fabs(ref.data()[i] - got.data()[i]) / scale);
  }
  return err;
}

struct GemmShape {
  size_t m, n, k;
};

// Spans the shapes the encoder stack actually issues: single recurrent rows,
// narrow conv panels, and blocked-path sizes with ragged tails.
const GemmShape kShapes[] = {
    {1, 24, 24},  {1, 96, 32},   {3, 5, 7},      {8, 16, 64},
    {60, 24, 24}, {64, 64, 64},  {61, 67, 130},  {128, 96, 200},
    {200, 16, 8}, {256, 256, 256},
};

TEST(FastMathMode, ScopedOverrideSetsAndRestores) {
  const MatrixMode ambient = GetMatrixMode();
  {
    ScopedMatrixMode fast(MatrixMode::kFast);
    EXPECT_EQ(GetMatrixMode(), MatrixMode::kFast);
    {
      ScopedMatrixMode reference(MatrixMode::kReference);
      EXPECT_EQ(GetMatrixMode(), MatrixMode::kReference);
    }
    EXPECT_EQ(GetMatrixMode(), MatrixMode::kFast);
  }
  EXPECT_EQ(GetMatrixMode(), ambient);
}

/// Runs MatrixModeFromEnvValue(value) with the log redirected to a file and
/// returns what it logged.
std::string LoggedWhileParsing(const char* value, MatrixMode* mode) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("easytime_fast_math_env_" + std::to_string(::getpid()) + ".log"))
          .string();
  std::filesystem::remove(path);
  Logging::SetLogFile(path);
  *mode = MatrixModeFromEnvValue(value);
  Logging::SetLogFile("");
  std::ifstream in(path);
  std::stringstream logged;
  logged << in.rdbuf();
  std::filesystem::remove(path);
  return logged.str();
}

TEST(FastMathMode, AcceptedEnvValuesSelectTheirTierSilently) {
  const struct {
    const char* value;
    MatrixMode mode;
  } kAccepted[] = {{nullptr, MatrixMode::kReference},
                   {"0", MatrixMode::kReference},
                   {"1", MatrixMode::kFast},
                   {"on", MatrixMode::kFast},
                   {"fast", MatrixMode::kFast}};
  for (const auto& c : kAccepted) {
    const std::string label = c.value == nullptr ? "unset" : c.value;
    MatrixMode mode = MatrixMode::kFast;
    EXPECT_EQ(LoggedWhileParsing(c.value, &mode), "") << label;
    EXPECT_EQ(mode, c.mode) << label;
  }
}

TEST(FastMathMode, UnrecognisedEnvValueWarnsAndRunsReference) {
  for (const char* value : {"2", "f32", "yes"}) {
    MatrixMode mode = MatrixMode::kFast;
    const std::string logged = LoggedWhileParsing(value, &mode);
    EXPECT_EQ(mode, MatrixMode::kReference) << value;
    EXPECT_NE(logged.find("WARN"), std::string::npos) << logged;
    EXPECT_NE(logged.find(std::string("'") + value + "'"), std::string::npos)
        << logged;
    EXPECT_NE(logged.find("1/on/fast"), std::string::npos) << logged;
    EXPECT_EQ(std::count(logged.begin(), logged.end(), '\n'), 1) << logged;
  }
}

class FastMathGemm : public ::testing::TestWithParam<GemmShape> {};

TEST_P(FastMathGemm, FastTiersMatchReferenceWithinTolerance) {
  const GemmShape s = GetParam();
  Rng rng(7 + s.m * 131 + s.n * 17 + s.k);
  const Matrix a = RandomMatrix(s.m, s.k, &rng);
  const Matrix b = RandomMatrix(s.k, s.n, &rng);
  const Matrix at = RandomMatrix(s.k, s.m, &rng);  // A^T operand
  const Matrix bt = RandomMatrix(s.n, s.k, &rng);  // B^T operand

  Matrix ref, ref_ta, ref_tb;
  {
    ScopedMatrixMode mode(MatrixMode::kReference);
    ref = a.MatMul(b);
    ref_ta = MatMulTransA(at, b);
    ref_tb = MatMulTransB(a, bt);
  }
  {
    ScopedMatrixMode mode(MatrixMode::kFast);
    // fp64 with FMA: only contraction rounding differs from the reference.
    EXPECT_LT(MaxRelErr(ref, a.MatMul(b)), 1e-12);
    EXPECT_LT(MaxRelErr(ref_ta, MatMulTransA(at, b)), 1e-12);
    EXPECT_LT(MaxRelErr(ref_tb, MatMulTransB(a, bt)), 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, FastMathGemm, ::testing::ValuesIn(kShapes));

TEST(FastMathGru, ForwardAndBackwardTrackReference) {
  const size_t T = 48, input = 6, H = 32;
  Rng data_rng(11);
  const Matrix x = RandomMatrix(T, input, &data_rng);
  Matrix grad_out(T, H);
  for (size_t i = 0; i < grad_out.size(); ++i) {
    grad_out.data()[i] = data_rng.Gaussian() * 0.1;
  }

  auto run = [&](MatrixMode mode, Matrix* out, Matrix* grad_in) {
    ScopedMatrixMode scoped(mode);
    Rng rng(42);  // identical weights across modes
    Gru gru(input, H, &rng);
    gru.ForwardInto(x, out);
    gru.BackwardInto(grad_out, grad_in);
  };

  Matrix out_ref, gin_ref, out_fast, gin_fast;
  run(MatrixMode::kReference, &out_ref, &gin_ref);
  run(MatrixMode::kFast, &out_fast, &gin_fast);

  EXPECT_LT(MaxRelErr(out_ref, out_fast), 1e-10);
  EXPECT_LT(MaxRelErr(gin_ref, gin_fast), 1e-8);
}

TEST(FastMathGru, ForwardConstAgreesWithForwardInto) {
  ScopedMatrixMode scoped(MatrixMode::kFast);
  Rng rng(5);
  Gru gru(4, 24, &rng);
  const Matrix x = RandomMatrix(40, 4, &rng);
  Matrix a, b;
  gru.ForwardInto(x, &a);
  gru.ForwardConst(x, &b);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.data()[i], b.data()[i]);
  }
}

TEST(FastMathTs2Vec, PretrainLossesTrackReferenceTier) {
  ensemble::Ts2VecOptions options;
  options.repr_dim = 8;
  options.hidden_dim = 12;
  options.depth = 2;
  options.crop_length = 48;
  options.batch_size = 4;
  options.epochs = 2;
  options.seed = 33;

  std::vector<std::vector<double>> corpus;
  Rng rng(77);
  for (int s = 0; s < 6; ++s) {
    std::vector<double> series(120);
    for (size_t t = 0; t < series.size(); ++t) {
      series[t] = std::sin(0.08 * static_cast<double>(t) + s) +
                  0.2 * rng.Gaussian();
    }
    corpus.push_back(std::move(series));
  }

  auto pretrain = [&](MatrixMode mode) {
    ScopedMatrixMode scoped(mode);
    ensemble::Ts2VecEncoder encoder(options);
    auto stats_or = ensemble::PretrainTs2Vec(&encoder, corpus);
    EXPECT_TRUE(stats_or.ok()) << stats_or.status().ToString();
    return stats_or.ok() ? stats_or->epoch_losses : std::vector<double>();
  };

  const std::vector<double> ref = pretrain(MatrixMode::kReference);
  const std::vector<double> fast = pretrain(MatrixMode::kFast);
  ASSERT_EQ(ref.size(), fast.size());
  for (size_t e = 0; e < ref.size(); ++e) {
    ASSERT_TRUE(std::isfinite(fast[e]));
    // The contrastive loss is O(1). FMA rounding moves it by ~1e-16 over
    // two epochs; 1e-6 leaves room for other ISAs and still catches a
    // kernel that computes the wrong product.
    EXPECT_NEAR(ref[e], fast[e], 1e-6 * std::max(1.0, std::fabs(ref[e])))
        << "epoch " << e;
  }
}

}  // namespace
}  // namespace easytime::nn
