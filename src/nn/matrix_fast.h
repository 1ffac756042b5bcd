#pragma once

/// \file matrix_fast.h
/// \brief Fast-tier GEMM kernels (internal; dispatched from kernel::GemmAcc
/// and friends when MatrixMode is kFast). The implementations live in
/// matrix_fast.cc, the one TU compiled with -ffp-contract=fast and the host
/// ISA, so mul+add chains contract to FMA. Everything stays fp64.
///
/// These kernels carry NO bit-exactness guarantee against the reference
/// tier; their accuracy envelope is pinned by tests/test_fast_math.cc.

#include <cstddef>

namespace easytime::nn::kernel {

/// C (m x n) += A (m x k) * B (k x n), FMA-contracted fp64.
void GemmAccFast(size_t m, size_t n, size_t k, const double* a, size_t lda,
                 const double* b, size_t ldb, double* c, size_t ldc);

/// C (m x n) += A^T * B with A (k x m), B (k x n), FMA-contracted fp64.
void GemmTransAAccFast(size_t m, size_t n, size_t k, const double* a,
                       size_t lda, const double* b, size_t ldb, double* c,
                       size_t ldc);

/// C (m x n) += A * B^T with A (m x k), B (n x k), FMA-contracted fp64.
void GemmTransBAccFast(size_t m, size_t n, size_t k, const double* a,
                       size_t lda, const double* b, size_t ldb, double* c,
                       size_t ldc);

/// sum_i a[i] * b[i], fp64 with a reassociated (vectorized) reduction.
/// For hot inner products outside GEMM (e.g. the contrastive loss) on the
/// fast tier; the reference tier must keep its own strictly-ordered loops.
double DotFast(const double* a, const double* b, size_t n);

/// y += alpha * x over n fp64 elements, FMA-contracted.
void AxpyFast(size_t n, double alpha, const double* x, double* y);

/// In place v[i] = exp(v[i] - shift); returns sum(v). Vectorized through
/// libmvec (its own TU, matrix_fast_exp.cc, built with -ffast-math), so the
/// inputs MUST be finite; a max-shifted softmax logit row qualifies.
double ExpSumFast(double* v, size_t n, double shift);

}  // namespace easytime::nn::kernel
