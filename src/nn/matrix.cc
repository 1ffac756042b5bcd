#include "nn/matrix.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "nn/matrix_fast.h"

namespace easytime::nn {

namespace {

std::atomic<int>& ModeFlag() {
  static std::atomic<int> mode{static_cast<int>(
      MatrixModeFromEnvValue(std::getenv("EASYTIME_FAST_MATH")))};
  return mode;
}

}  // namespace

MatrixMode MatrixModeFromEnvValue(const char* value) {
  if (value == nullptr || std::strcmp(value, "0") == 0) {
    return MatrixMode::kReference;
  }
  if (std::strcmp(value, "1") == 0 || std::strcmp(value, "on") == 0 ||
      std::strcmp(value, "fast") == 0) {
    return MatrixMode::kFast;
  }
  EASYTIME_LOG(Warning) << "EASYTIME_FAST_MATH='" << value
                        << "' is not recognised (accepted: unset or 0 for "
                           "the reference tier, 1/on/fast for the fast "
                           "tier); using the reference tier";
  return MatrixMode::kReference;
}

MatrixMode GetMatrixMode() {
  return static_cast<MatrixMode>(ModeFlag().load(std::memory_order_relaxed));
}

void SetMatrixMode(MatrixMode mode) {
  ModeFlag().store(static_cast<int>(mode), std::memory_order_relaxed);
}

namespace kernel {

namespace {

// Panel sizes: the (kKBlock x kNBlock) B panel is 128 KiB, sized to sit in
// L2 while the four active C rows (kMr x kNBlock = 8 KiB) stay in L1.
constexpr size_t kKBlock = 64;
constexpr size_t kNBlock = 256;
constexpr size_t kMr = 4;

#if defined(__GNUC__)
// GCC/Clang vector extension: element-wise mul and add round exactly like
// the scalar code (this TU is built with -ffp-contract=off, so no FMA
// contraction), keeping the blocked kernel bit-identical to the naive
// reference. Width follows the best ISA the TU is compiled for.
#define EASYTIME_GEMM_VECTOR_KERNEL 1
#if defined(__AVX512F__)
typedef double VecD __attribute__((vector_size(64)));
#elif defined(__AVX__)
typedef double VecD __attribute__((vector_size(32)));
#else
typedef double VecD __attribute__((vector_size(16)));
#endif
constexpr size_t kVw = sizeof(VecD) / sizeof(double);
constexpr size_t kNr = 2 * kVw;  ///< micro-tile width: 2 vectors per C row

inline VecD LoadV(const double* p) {
  VecD v;
  __builtin_memcpy(&v, p, sizeof(v));
  return v;
}
inline void StoreV(double* p, VecD v) { __builtin_memcpy(p, &v, sizeof(v)); }
// Braced init lowers to a single vbroadcastsd; a lane loop would emit one
// masked insert per lane.
inline VecD Splat(double x) {
  if constexpr (kVw == 8) {
    return VecD{x, x, x, x, x, x, x, x};
  } else if constexpr (kVw == 4) {
    return VecD{x, x, x, x};
  } else {
    return VecD{x, x};
  }
}
#else
constexpr size_t kNr = 8;
#endif

// Row-parallel dispatch threshold (m*n*k). Below this the ParallelFor
// handoff costs more than it saves.
constexpr size_t kParallelMinWork = size_t{1} << 22;

/// (kMr x kNr) register micro-kernel over a packed B strip (kNr contiguous
/// doubles per k step): accumulators live in local arrays for the whole
/// k-block (the compiler keeps them in registers because they cannot alias
/// the packed panel), so C traffic is one load + one store per block instead
/// of per k. Each accumulator chain still adds its terms in ascending k
/// order.
inline void MicroKernel4xN(size_t kb, const double* a0, const double* a1,
                           const double* a2, const double* a3,
                           const double* bp, double* c0, double* c1,
                           double* c2, double* c3) {
#if defined(EASYTIME_GEMM_VECTOR_KERNEL)
  VecD acc00 = LoadV(c0), acc01 = LoadV(c0 + kVw);
  VecD acc10 = LoadV(c1), acc11 = LoadV(c1 + kVw);
  VecD acc20 = LoadV(c2), acc21 = LoadV(c2 + kVw);
  VecD acc30 = LoadV(c3), acc31 = LoadV(c3 + kVw);
  for (size_t kk = 0; kk < kb; ++kk) {
    const double* br = bp + kk * kNr;
    const VecD b0 = LoadV(br);
    const VecD b1 = LoadV(br + kVw);
    VecD av;
    av = Splat(a0[kk]);
    acc00 += av * b0;
    acc01 += av * b1;
    av = Splat(a1[kk]);
    acc10 += av * b0;
    acc11 += av * b1;
    av = Splat(a2[kk]);
    acc20 += av * b0;
    acc21 += av * b1;
    av = Splat(a3[kk]);
    acc30 += av * b0;
    acc31 += av * b1;
  }
  StoreV(c0, acc00);
  StoreV(c0 + kVw, acc01);
  StoreV(c1, acc10);
  StoreV(c1 + kVw, acc11);
  StoreV(c2, acc20);
  StoreV(c2 + kVw, acc21);
  StoreV(c3, acc30);
  StoreV(c3 + kVw, acc31);
#else
  double acc0[kNr], acc1[kNr], acc2[kNr], acc3[kNr];
  for (size_t jj = 0; jj < kNr; ++jj) {
    acc0[jj] = c0[jj];
    acc1[jj] = c1[jj];
    acc2[jj] = c2[jj];
    acc3[jj] = c3[jj];
  }
  for (size_t kk = 0; kk < kb; ++kk) {
    const double av0 = a0[kk];
    const double av1 = a1[kk];
    const double av2 = a2[kk];
    const double av3 = a3[kk];
    const double* br = bp + kk * kNr;
    for (size_t jj = 0; jj < kNr; ++jj) {
      const double bv = br[jj];
      acc0[jj] += av0 * bv;
      acc1[jj] += av1 * bv;
      acc2[jj] += av2 * bv;
      acc3[jj] += av3 * bv;
    }
  }
  for (size_t jj = 0; jj < kNr; ++jj) {
    c0[jj] = acc0[jj];
    c1[jj] = acc1[jj];
    c2[jj] = acc2[jj];
    c3[jj] = acc3[jj];
  }
#endif
}

/// Streaming row-broadcast kernel for short C row ranges, where packing a B
/// panel would not amortize: walks B rows sequentially, accumulating into C
/// in ascending k order.
void GemmAccRowsStreaming(size_t i_begin, size_t i_end, size_t n, size_t k,
                          const double* a, size_t lda, const double* b,
                          size_t ldb, double* c, size_t ldc) {
  for (size_t i = i_begin; i < i_end; ++i) {
    const double* ar = a + i * lda;
    double* cr = c + i * ldc;
    for (size_t kk = 0; kk < k; ++kk) {
      const double av = ar[kk];
      const double* br = b + kk * ldb;
      for (size_t j = 0; j < n; ++j) cr[j] += av * br[j];
    }
  }
}

/// Serial blocked GEMM over C rows [i_begin, i_end); each C element
/// accumulates its k terms one by one in ascending order. The active B panel
/// is packed into contiguous kNr-wide strips so the micro-kernel reads it
/// sequentially (the raw panel's ldb-strided columns thrash L1 sets).
/// Packing is a pure copy, so results are unchanged.
void GemmAccRows(size_t i_begin, size_t i_end, size_t n, size_t k,
                 const double* a, size_t lda, const double* b, size_t ldb,
                 double* c, size_t ldc) {
  if (i_end - i_begin < 2 * kMr) {
    GemmAccRowsStreaming(i_begin, i_end, n, k, a, lda, b, ldb, c, ldc);
    return;
  }
  thread_local std::vector<double> packb;
  packb.resize(kKBlock * kNBlock);
  for (size_t j0 = 0; j0 < n; j0 += kNBlock) {
    const size_t jend = std::min(n, j0 + kNBlock);
    const size_t full_tiles = (jend - j0) / kNr;
    const size_t tiled_w = full_tiles * kNr;
    for (size_t k0 = 0; k0 < k; k0 += kKBlock) {
      const size_t kend = std::min(k, k0 + kKBlock);
      const size_t kb = kend - k0;
      // Pack: strip t holds B(k0..kend, j0+t*kNr .. +kNr) as kb rows of kNr.
      for (size_t kk = 0; kk < kb; ++kk) {
        const double* br = b + (k0 + kk) * ldb + j0;
        double* dst = packb.data() + kk * kNr;
        for (size_t t = 0; t < full_tiles; ++t) {
          std::copy(br + t * kNr, br + (t + 1) * kNr, dst + t * kb * kNr);
        }
      }
      size_t i = i_begin;
      for (; i + kMr <= i_end; i += kMr) {
        const double* a0 = a + i * lda + k0;
        const double* a1 = a0 + lda;
        const double* a2 = a1 + lda;
        const double* a3 = a2 + lda;
        double* c0 = c + i * ldc + j0;
        double* c1 = c0 + ldc;
        double* c2 = c1 + ldc;
        double* c3 = c2 + ldc;
        for (size_t t = 0; t < full_tiles; ++t) {
          MicroKernel4xN(kb, a0, a1, a2, a3, packb.data() + t * kb * kNr,
                         c0 + t * kNr, c1 + t * kNr, c2 + t * kNr,
                         c3 + t * kNr);
        }
        for (size_t j = j0 + tiled_w; j < jend; ++j) {
          double s0 = c0[j - j0], s1 = c1[j - j0];
          double s2 = c2[j - j0], s3 = c3[j - j0];
          for (size_t kk = k0; kk < kend; ++kk) {
            const double bv = b[kk * ldb + j];
            s0 += a0[kk - k0] * bv;
            s1 += a1[kk - k0] * bv;
            s2 += a2[kk - k0] * bv;
            s3 += a3[kk - k0] * bv;
          }
          c0[j - j0] = s0;
          c1[j - j0] = s1;
          c2[j - j0] = s2;
          c3[j - j0] = s3;
        }
      }
      for (; i < i_end; ++i) {
        const double* ar = a + i * lda + k0;
        double* cr = c + i * ldc + j0;
        for (size_t t = 0; t < full_tiles; ++t) {
          const double* bp = packb.data() + t * kb * kNr;
          double acc[kNr];
          for (size_t jj = 0; jj < kNr; ++jj) acc[jj] = cr[t * kNr + jj];
          for (size_t kk = 0; kk < kb; ++kk) {
            const double av = ar[kk];
            const double* br = bp + kk * kNr;
            for (size_t jj = 0; jj < kNr; ++jj) acc[jj] += av * br[jj];
          }
          for (size_t jj = 0; jj < kNr; ++jj) cr[t * kNr + jj] = acc[jj];
        }
        for (size_t j = j0 + tiled_w; j < jend; ++j) {
          double s = cr[j - j0];
          for (size_t kk = k0; kk < kend; ++kk) {
            s += ar[kk - k0] * b[kk * ldb + j];
          }
          cr[j - j0] = s;
        }
      }
    }
  }
}

}  // namespace

void GemmAcc(size_t m, size_t n, size_t k, const double* a, size_t lda,
             const double* b, size_t ldb, double* c, size_t ldc) {
  if (m == 0 || n == 0 || k == 0) return;
  if (GetMatrixMode() == MatrixMode::kFast) {
    GemmAccFast(m, n, k, a, lda, b, ldb, c, ldc);
    return;
  }
  // Row ranges are independent, so splitting them across the shared pool is
  // deterministic (each C element is produced by exactly one thread with the
  // same instruction sequence as the serial path). With fewer than two
  // workers the split just timeshares one core, so stay serial.
  if (m >= 2 * kMr && m * n * k >= kParallelMinWork &&
      GlobalThreadPool().size() >= 2) {
    ThreadPool& pool = GlobalThreadPool();
    const size_t blocks =
        std::min(pool.size() + 1, m / kMr);
    if (blocks > 1) {
      const size_t rows_per = (m + blocks - 1) / blocks;
      pool.ParallelFor(blocks, [&](size_t bi) {
        const size_t i0 = bi * rows_per;
        const size_t i1 = std::min(m, i0 + rows_per);
        if (i0 < i1) GemmAccRows(i0, i1, n, k, a, lda, b, ldb, c, ldc);
      });
      return;
    }
  }
  GemmAccRows(0, m, n, k, a, lda, b, ldb, c, ldc);
}

void GemmTransAAcc(size_t m, size_t n, size_t k, const double* a, size_t lda,
                   const double* b, size_t ldb, double* c, size_t ldc) {
  if (m == 0 || n == 0 || k == 0) return;
  if (GetMatrixMode() == MatrixMode::kFast) {
    GemmTransAAccFast(m, n, k, a, lda, b, ldb, c, ldc);
    return;
  }
  // C = A^T B accumulates as k rank-1 updates: for each kk, row kk of A and
  // row kk of B are both contiguous, and C (a gradient panel, small here)
  // stays cache-resident. Per-element order is kk-ascending.
  for (size_t kk = 0; kk < k; ++kk) {
    const double* ar = a + kk * lda;
    const double* br = b + kk * ldb;
    for (size_t i = 0; i < m; ++i) {
      const double av = ar[i];
      double* cr = c + i * ldc;
      for (size_t j = 0; j < n; ++j) cr[j] += av * br[j];
    }
  }
}

void GemmTransBAcc(size_t m, size_t n, size_t k, const double* a, size_t lda,
                   const double* b, size_t ldb, double* c, size_t ldc) {
  if (m == 0 || n == 0 || k == 0) return;
  if (GetMatrixMode() == MatrixMode::kFast) {
    GemmTransBAccFast(m, n, k, a, lda, b, ldb, c, ldc);
    return;
  }
  // C[i][j] = dot(A row i, B row j): both operands stream contiguously.
  // 2x2 register tile -> four independent accumulator chains; each chain
  // adds its k terms sequentially in ascending order.
  size_t i = 0;
  for (; i + 2 <= m; i += 2) {
    const double* a0 = a + i * lda;
    const double* a1 = a0 + lda;
    double* c0 = c + i * ldc;
    double* c1 = c0 + ldc;
    size_t j = 0;
    for (; j + 2 <= n; j += 2) {
      const double* b0 = b + j * ldb;
      const double* b1 = b0 + ldb;
      double s00 = c0[j];
      double s01 = c0[j + 1];
      double s10 = c1[j];
      double s11 = c1[j + 1];
      for (size_t kk = 0; kk < k; ++kk) {
        const double av0 = a0[kk];
        const double av1 = a1[kk];
        const double bv0 = b0[kk];
        const double bv1 = b1[kk];
        s00 += av0 * bv0;
        s01 += av0 * bv1;
        s10 += av1 * bv0;
        s11 += av1 * bv1;
      }
      c0[j] = s00;
      c0[j + 1] = s01;
      c1[j] = s10;
      c1[j + 1] = s11;
    }
    for (; j < n; ++j) {
      const double* b0 = b + j * ldb;
      double s0 = c0[j];
      double s1 = c1[j];
      for (size_t kk = 0; kk < k; ++kk) {
        s0 += a0[kk] * b0[kk];
        s1 += a1[kk] * b0[kk];
      }
      c0[j] = s0;
      c1[j] = s1;
    }
  }
  for (; i < m; ++i) {
    const double* a0 = a + i * lda;
    double* c0 = c + i * ldc;
    for (size_t j = 0; j < n; ++j) {
      const double* b0 = b + j * ldb;
      double s0 = c0[j];
      for (size_t kk = 0; kk < k; ++kk) s0 += a0[kk] * b0[kk];
      c0[j] = s0;
    }
  }
}

}  // namespace kernel

Matrix Matrix::Xavier(size_t rows, size_t cols, Rng* rng) {
  Matrix m(rows, cols);
  double limit = std::sqrt(6.0 / static_cast<double>(rows + cols));
  for (auto& v : m.data_) v = rng->Uniform(-limit, limit);
  return m;
}

Matrix Matrix::Gaussian(size_t rows, size_t cols, double stddev, Rng* rng) {
  Matrix m(rows, cols);
  for (auto& v : m.data_) v = rng->Gaussian(0.0, stddev);
  return m;
}

Matrix Matrix::FromVector(const std::vector<double>& v) {
  Matrix m(1, v.size());
  m.data_ = v;
  return m;
}

std::vector<double> Matrix::Row(size_t r) const {
  return std::vector<double>(data_.begin() + static_cast<long>(r * cols_),
                             data_.begin() + static_cast<long>((r + 1) * cols_));
}

void Matrix::Fill(double v) {
  for (auto& x : data_) x = v;
}

void Matrix::Add(const Matrix& other) {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
}

void Matrix::Sub(const Matrix& other) {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
}

void Matrix::Scale(double s) {
  for (auto& x : data_) x *= s;
}

void Matrix::Axpy(double s, const Matrix& other) {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += s * other.data_[i];
}

Matrix Matrix::Hadamard(const Matrix& other) const {
  Matrix out;
  HadamardInto(*this, other, &out);
  return out;
}

Matrix Matrix::MatMul(const Matrix& other) const {
  Matrix out;
  MatMulInto(*this, other, &out);
  return out;
}

Matrix Matrix::Transposed() const {
  Matrix out(cols_, rows_);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t c = 0; c < cols_; ++c) out.at(c, r) = at(r, c);
  }
  return out;
}

double Matrix::Sum() const {
  double s = 0.0;
  for (double v : data_) s += v;
  return s;
}

double Matrix::SquaredNorm() const {
  double s = 0.0;
  for (double v : data_) s += v * v;
  return s;
}

void MatMulInto(const Matrix& a, const Matrix& b, Matrix* out) {
  assert(a.cols() == b.rows());
  assert(out != &a && out != &b);
  out->Resize(a.rows(), b.cols());
  out->Fill(0.0);
  kernel::GemmAcc(a.rows(), b.cols(), a.cols(), a.data(), a.cols(), b.data(),
                  b.cols(), out->data(), b.cols());
}

void MatMulTransAInto(const Matrix& a, const Matrix& b, Matrix* out,
                      bool accumulate) {
  assert(a.rows() == b.rows());
  assert(out != &a && out != &b);
  if (!accumulate) {
    out->Resize(a.cols(), b.cols());
    out->Fill(0.0);
  } else {
    assert(out->rows() == a.cols() && out->cols() == b.cols());
  }
  kernel::GemmTransAAcc(a.cols(), b.cols(), a.rows(), a.data(), a.cols(),
                        b.data(), b.cols(), out->data(), b.cols());
}

Matrix MatMulTransA(const Matrix& a, const Matrix& b) {
  Matrix out;
  MatMulTransAInto(a, b, &out);
  return out;
}

void MatMulTransBInto(const Matrix& a, const Matrix& b, Matrix* out,
                      bool accumulate) {
  assert(a.cols() == b.cols());
  assert(out != &a && out != &b);
  if (!accumulate) {
    out->Resize(a.rows(), b.rows());
    out->Fill(0.0);
  } else {
    assert(out->rows() == a.rows() && out->cols() == b.rows());
  }
  kernel::GemmTransBAcc(a.rows(), b.rows(), a.cols(), a.data(), a.cols(),
                        b.data(), b.cols(), out->data(), b.rows());
}

Matrix MatMulTransB(const Matrix& a, const Matrix& b) {
  Matrix out;
  MatMulTransBInto(a, b, &out);
  return out;
}

void AddInto(const Matrix& a, const Matrix& b, Matrix* out) {
  assert(a.rows() == b.rows() && a.cols() == b.cols());
  out->Resize(a.rows(), b.cols());
  const double* pa = a.data();
  const double* pb = b.data();
  double* po = out->data();
  for (size_t i = 0; i < a.size(); ++i) po[i] = pa[i] + pb[i];
}

void HadamardInto(const Matrix& a, const Matrix& b, Matrix* out) {
  assert(a.rows() == b.rows() && a.cols() == b.cols());
  out->Resize(a.rows(), b.cols());
  const double* pa = a.data();
  const double* pb = b.data();
  double* po = out->data();
  for (size_t i = 0; i < a.size(); ++i) po[i] = pa[i] * pb[i];
}

}  // namespace easytime::nn
