#include "nn/matrix_fast.h"

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/thread_pool.h"

// This TU is compiled with -ffp-contract=fast plus reassociation
// (-fassociative-math and friends, see src/nn/CMakeLists.txt), so mul+add
// chains fuse into FMA and dot-product reductions vectorize. That is exactly
// the freedom the reference kernels in matrix.cc give up to stay bit-exact;
// here the only contract is the rel-err envelope of tests/test_fast_math.cc.

namespace easytime::nn::kernel {

namespace {

// Same cache blocking as the reference kernel: the (kKBlock x kNBlock) B
// panel sits in L2, the active C rows in L1. The register tile is taller
// than the reference's 4 rows: 8 rows x 2 vectors = 16 accumulator chains,
// enough to cover FMA latency x ports, and each packed B load is reused 8x.
// The reference kernel cannot grow its tile without re-pinning goldens; this
// TU has no bit-exactness contract, so it takes the better shape.
constexpr size_t kKBlock = 64;
constexpr size_t kNBlock = 256;
constexpr size_t kMr = 8;

// The TransB dot kernel folds its 2x2 tile's partial sums into the output
// sums every kChunk k-steps. The fold points fix kFast's rounding, so they
// stay even though every partial sum is fp64.
constexpr size_t kChunk = 4 * kKBlock;

// Row-parallel dispatch threshold (m*n*k), as in the reference kernel.
constexpr size_t kParallelMinWork = size_t{1} << 22;

#if defined(__GNUC__)
#define EASYTIME_FAST_VECTOR_KERNEL 1
#if defined(__AVX512F__)
constexpr size_t kVecBytes = 64;
#elif defined(__AVX__)
constexpr size_t kVecBytes = 32;
#else
constexpr size_t kVecBytes = 16;
#endif

typedef double Vec __attribute__((vector_size(kVecBytes)));
constexpr size_t kVw = kVecBytes / sizeof(double);
/// Micro-tile width in elements: two vectors per C row.
constexpr size_t kNr = 2 * kVw;

inline Vec LoadV(const double* p) {
  Vec v;
  __builtin_memcpy(&v, p, sizeof(v));
  return v;
}

inline Vec Splat(double x) {
  return Vec{} + x;  // scalar broadcasts over the vector
}

/// (kMr x 2-vector) micro-kernel over a packed B strip. Unlike the
/// reference kernel the accumulators start at zero and the block sum is
/// folded into C afterwards, which frees the compiler to contract every
/// step into FMA. The k loop is unrolled by two so the B loads of step
/// kk+1 issue while step kk's FMAs retire — measured ~1.3x over the rolled
/// loop on 256^3.
inline void MicroKernelFast(size_t kb, const double* const* ar,
                            const double* bp, double* const* cr) {
  constexpr size_t W = kVw;
  Vec acc[kMr][2];
  for (size_t r = 0; r < kMr; ++r) {
    acc[r][0] = Vec{};
    acc[r][1] = Vec{};
  }
  size_t kk = 0;
  for (; kk + 2 <= kb; kk += 2) {
    const double* br = bp + kk * 2 * W;
    const Vec b0 = LoadV(br);
    const Vec b1 = LoadV(br + W);
    const Vec b2 = LoadV(br + 2 * W);
    const Vec b3 = LoadV(br + 3 * W);
    for (size_t r = 0; r < kMr; ++r) {
      const Vec av = Splat(ar[r][kk]);
      acc[r][0] += av * b0;
      acc[r][1] += av * b1;
      const Vec aw = Splat(ar[r][kk + 1]);
      acc[r][0] += aw * b2;
      acc[r][1] += aw * b3;
    }
  }
  for (; kk < kb; ++kk) {
    const double* br = bp + kk * 2 * W;
    const Vec b0 = LoadV(br);
    const Vec b1 = LoadV(br + W);
    for (size_t r = 0; r < kMr; ++r) {
      const Vec av = Splat(ar[r][kk]);
      acc[r][0] += av * b0;
      acc[r][1] += av * b1;
    }
  }
  for (size_t r = 0; r < kMr; ++r) {
    for (size_t l = 0; l < W; ++l) {
      cr[r][l] += acc[r][0][l];
      cr[r][W + l] += acc[r][1][l];
    }
  }
}
#endif  // __GNUC__

/// Streaming kernel for shapes the blocked path cannot tile (short row
/// ranges, n narrower than a micro-tile). The independent-per-column inner
/// loop vectorizes with FMA.
void FastStreamRows(size_t i_begin, size_t i_end, size_t n, size_t k,
                    const double* a, size_t lda, const double* b, size_t ldb,
                    double* c, size_t ldc) {
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

#if defined(EASYTIME_FAST_VECTOR_KERNEL)
/// Blocked fast GEMM over C rows [i_begin, i_end): B panels are packed into
/// contiguous micro-tile strips, then the register micro-kernel sweeps
/// kMr-row tiles.
void FastGemmRows(size_t i_begin, size_t i_end, size_t n, size_t k,
                  const double* a, size_t lda, const double* b, size_t ldb,
                  double* c, size_t ldc) {
  if (i_end - i_begin < 2 * kMr || n < kNr) {
    FastStreamRows(i_begin, i_end, n, k, a, lda, b, ldb, c, ldc);
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
          const double* src = br + t * kNr;
          double* d = dst + t * kb * kNr;
          for (size_t jj = 0; jj < kNr; ++jj) d[jj] = src[jj];
        }
      }
      size_t i = i_begin;
      for (; i + kMr <= i_end; i += kMr) {
        const double* ar[kMr];
        double* cr0[kMr];
        for (size_t r = 0; r < kMr; ++r) {
          ar[r] = a + (i + r) * lda + k0;
          cr0[r] = c + (i + r) * ldc + j0;
        }
        for (size_t t = 0; t < full_tiles; ++t) {
          double* cr[kMr];
          for (size_t r = 0; r < kMr; ++r) cr[r] = cr0[r] + t * kNr;
          MicroKernelFast(kb, ar, packb.data() + t * kb * kNr, cr);
        }
        for (size_t j = j0 + tiled_w; j < jend; ++j) {
          for (size_t r = 0; r < kMr; ++r) {
            double s = 0.0;
            for (size_t kk = k0; kk < kend; ++kk) {
              s += ar[r][kk - k0] * b[kk * ldb + j];
            }
            cr0[r][j - j0] += s;
          }
        }
      }
      for (; i < i_end; ++i) {
        const double* ar = a + i * lda + k0;
        double* cr = c + i * ldc + j0;
        for (size_t t = 0; t < full_tiles; ++t) {
          const double* bp = packb.data() + t * kb * kNr;
          double acc[kNr] = {};
          for (size_t kk = 0; kk < kb; ++kk) {
            const double av = ar[kk];
            const double* br = bp + kk * kNr;
            for (size_t jj = 0; jj < kNr; ++jj) acc[jj] += av * br[jj];
          }
          for (size_t jj = 0; jj < kNr; ++jj) cr[t * kNr + jj] += acc[jj];
        }
        for (size_t j = j0 + tiled_w; j < jend; ++j) {
          double s = 0.0;
          for (size_t kk = k0; kk < kend; ++kk) {
            s += ar[kk - k0] * b[kk * ldb + j];
          }
          cr[j - j0] += s;
        }
      }
    }
  }
}
#else
void FastGemmRows(size_t i_begin, size_t i_end, size_t n, size_t k,
                  const double* a, size_t lda, const double* b, size_t ldb,
                  double* c, size_t ldc) {
  FastStreamRows(i_begin, i_end, n, k, a, lda, b, ldb, c, ldc);
}
#endif

}  // namespace

void GemmAccFast(size_t m, size_t n, size_t k, const double* a, size_t lda,
                 const double* b, size_t ldb, double* c, size_t ldc) {
  // Row-parallel split as in the reference kernel: each C row is still
  // produced by exactly one thread.
  if (m >= 2 * kMr && m * n * k >= kParallelMinWork &&
      GlobalThreadPool().size() >= 2) {
    ThreadPool& pool = GlobalThreadPool();
    const size_t blocks = std::min(pool.size() + 1, m / kMr);
    if (blocks > 1) {
      const size_t rows_per = (m + blocks - 1) / blocks;
      pool.ParallelFor(blocks, [&](size_t bi) {
        const size_t i0 = bi * rows_per;
        const size_t i1 = std::min(m, i0 + rows_per);
        if (i0 < i1) FastGemmRows(i0, i1, n, k, a, lda, b, ldb, c, ldc);
      });
      return;
    }
  }
  FastGemmRows(0, m, n, k, a, lda, b, ldb, c, ldc);
}

void GemmTransAAccFast(size_t m, size_t n, size_t k, const double* a,
                       size_t lda, const double* b, size_t ldb, double* c,
                       size_t ldc) {
  // k rank-1 updates, as in the reference kernel; contraction makes each
  // inner step one FMA.
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

void GemmTransBAccFast(size_t m, size_t n, size_t k, const double* a,
                       size_t lda, const double* b, size_t ldb, double* c,
                       size_t ldc) {
  // Dot-product body: the accumulator chains vectorize as reductions thanks
  // to the reassociation flags on this TU.
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
      double s00 = 0.0, s01 = 0.0, s10 = 0.0, s11 = 0.0;
      for (size_t k0 = 0; k0 < k; k0 += kChunk) {
        const size_t kend = std::min(k, k0 + kChunk);
        double f00 = 0.0, f01 = 0.0, f10 = 0.0, f11 = 0.0;
        for (size_t kk = k0; kk < kend; ++kk) {
          f00 += a0[kk] * b0[kk];
          f01 += a0[kk] * b1[kk];
          f10 += a1[kk] * b0[kk];
          f11 += a1[kk] * b1[kk];
        }
        s00 += f00;
        s01 += f01;
        s10 += f10;
        s11 += f11;
      }
      c0[j] += s00;
      c0[j + 1] += s01;
      c1[j] += s10;
      c1[j + 1] += s11;
    }
    for (; j < n; ++j) {
      const double* b0 = b + j * ldb;
      double f0 = 0.0, f1 = 0.0;
      for (size_t kk = 0; kk < k; ++kk) {
        f0 += a0[kk] * b0[kk];
        f1 += a1[kk] * b0[kk];
      }
      c0[j] += f0;
      c1[j] += f1;
    }
  }
  for (; i < m; ++i) {
    const double* a0 = a + i * lda;
    double* c0 = c + i * ldc;
    for (size_t j = 0; j < n; ++j) {
      const double* b0 = b + j * ldb;
      double f0 = 0.0;
      for (size_t kk = 0; kk < k; ++kk) f0 += a0[kk] * b0[kk];
      c0[j] += f0;
    }
  }
}

double DotFast(const double* a, const double* b, size_t n) {
  double s = 0.0;  // reassociation on this TU vectorizes the reduction
  for (size_t i = 0; i < n; ++i) s += a[i] * b[i];
  return s;
}

void AxpyFast(size_t n, double alpha, const double* x, double* y) {
  for (size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

}  // namespace easytime::nn::kernel
