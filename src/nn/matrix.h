#pragma once

/// \file matrix.h
/// \brief Dense row-major matrix used as the tensor type of the mini NN
/// engine. Sequences are (time x channels) matrices; batches are vectors of
/// matrices. Sized for CPU training of the small models EasyTime uses
/// (TS2Vec encoder, method classifier, MLP/GRU/TCN forecasters).
///
/// The hot products go through cache-blocked, register-tiled GEMM kernels
/// (kernel::GemmAcc and friends) that accumulate each output element in
/// strictly ascending k order, so they are bit-compatible with the naive
/// reference kernel (MatMulNaive) kept for equivalence testing.

#include <cassert>
#include <cstddef>
#include <vector>

#include "common/rng.h"

namespace easytime::nn {

/// \brief Numeric tier of the GEMM kernels (DESIGN.md §10). The reference
/// tier is the default: bit-exact ascending-k accumulation with FMA
/// contraction disabled, pinned by the determinism suite. The fast tier
/// trades bit-exactness for speed and is covered by the relaxed-tolerance
/// suite (tests/test_fast_math.cc) instead.
enum class MatrixMode : int {
  /// Bit-exact kernels; blocked == naive bit-for-bit.
  kReference = 0,
  /// FMA-contracted fp64 kernels compiled for the host ISA.
  kFast = 1,
};

/// Maps an EASYTIME_FAST_MATH value to a tier: unset (null) or "0" is
/// kReference, "1"/"on"/"fast" is kFast. Any other value logs one warning
/// that names it and the accepted values, then selects kReference.
MatrixMode MatrixModeFromEnvValue(const char* value);

/// The process-wide kernel tier. Initialized once from EASYTIME_FAST_MATH
/// (see MatrixModeFromEnvValue); reads are a single relaxed atomic load.
MatrixMode GetMatrixMode();
void SetMatrixMode(MatrixMode mode);

/// RAII mode override for tests and benchmarks.
class ScopedMatrixMode {
 public:
  explicit ScopedMatrixMode(MatrixMode mode) : previous_(GetMatrixMode()) {
    SetMatrixMode(mode);
  }
  ~ScopedMatrixMode() { SetMatrixMode(previous_); }
  ScopedMatrixMode(const ScopedMatrixMode&) = delete;
  ScopedMatrixMode& operator=(const ScopedMatrixMode&) = delete;

 private:
  MatrixMode previous_;
};

/// \brief Raw row-major GEMM micro-kernels. All variants *accumulate* into C
/// (callers zero or bias-seed C first). In MatrixMode::kReference they keep
/// per-element accumulation in ascending k order, which makes them drop-in
/// replacements for naive loops without numerical drift; kFast dispatches
/// to the FMA kernels of matrix_fast.h instead. Strides (lda/ldb/ldc) are row
/// strides, allowing shifted / sub-panel views (used by the causal
/// convolutions).
namespace kernel {

/// C (m x n) += A (m x k) * B (k x n).
void GemmAcc(size_t m, size_t n, size_t k, const double* a, size_t lda,
             const double* b, size_t ldb, double* c, size_t ldc);

/// C (m x n) += A^T * B where A is (k x m), B is (k x n). The transpose is
/// fused into the access pattern; no transposed copy is materialized.
void GemmTransAAcc(size_t m, size_t n, size_t k, const double* a, size_t lda,
                   const double* b, size_t ldb, double* c, size_t ldc);

/// C (m x n) += A * B^T where A is (m x k), B is (n x k). Fused transpose.
void GemmTransBAcc(size_t m, size_t n, size_t k, const double* a, size_t lda,
                   const double* b, size_t ldb, double* c, size_t ldc);

}  // namespace kernel

/// \brief A dense row-major double matrix with the handful of operations the
/// layer implementations need.
class Matrix {
 public:
  Matrix() = default;
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  static Matrix Zeros(size_t rows, size_t cols) { return Matrix(rows, cols); }

  /// Xavier/Glorot uniform initialization.
  static Matrix Xavier(size_t rows, size_t cols, Rng* rng);

  /// Gaussian initialization with the given std.
  static Matrix Gaussian(size_t rows, size_t cols, double stddev, Rng* rng);

  /// Builds a 1 x n row vector from \p v.
  static Matrix FromVector(const std::vector<double>& v);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  /// Reshapes to (rows x cols) without initializing entries. Keeps the
  /// underlying buffer when the element count allows, so workspace matrices
  /// resized to a steady-state shape stop allocating after the first call.
  void Resize(size_t rows, size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  double& at(size_t r, size_t c) {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double at(size_t r, size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }
  /// Pointer to row \p r.
  double* row_data(size_t r) { return data_.data() + r * cols_; }
  const double* row_data(size_t r) const { return data_.data() + r * cols_; }
  std::vector<double>& raw() { return data_; }
  const std::vector<double>& raw() const { return data_; }

  /// Row r as a vector copy.
  std::vector<double> Row(size_t r) const;

  /// Sets all entries to \p v.
  void Fill(double v);

  /// this += other (same shape).
  void Add(const Matrix& other);
  /// this -= other (same shape).
  void Sub(const Matrix& other);
  /// this *= s.
  void Scale(double s);
  /// this += s * other (axpy, same shape).
  void Axpy(double s, const Matrix& other);

  /// Element-wise product (same shape).
  Matrix Hadamard(const Matrix& other) const;

  /// Matrix product: (m x k) * (k x n) -> (m x n). Blocked kernel.
  Matrix MatMul(const Matrix& other) const;

  /// Naive triple-loop reference product, kept for equivalence testing of
  /// the blocked kernels.
  Matrix MatMulNaive(const Matrix& other) const;

  /// Transpose copy.
  Matrix Transposed() const;

  /// Sum of all entries.
  double Sum() const;

  /// Frobenius norm squared.
  double SquaredNorm() const;

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<double> data_;
};

/// out = a * b, blocked kernel; out is resized (buffer reused when possible).
void MatMulInto(const Matrix& a, const Matrix& b, Matrix* out);

/// out (+)= a^T * b with a (k x m), b (k x n); no transposed copy is made.
void MatMulTransAInto(const Matrix& a, const Matrix& b, Matrix* out,
                      bool accumulate = false);
Matrix MatMulTransA(const Matrix& a, const Matrix& b);

/// out (+)= a * b^T with a (m x k), b (n x k); no transposed copy is made.
void MatMulTransBInto(const Matrix& a, const Matrix& b, Matrix* out,
                      bool accumulate = false);
Matrix MatMulTransB(const Matrix& a, const Matrix& b);

/// out = a + b (same shape); out is resized.
void AddInto(const Matrix& a, const Matrix& b, Matrix* out);

/// out = a .* b (same shape); out is resized.
void HadamardInto(const Matrix& a, const Matrix& b, Matrix* out);

/// \brief A trainable parameter: value plus accumulated gradient.
struct Param {
  Matrix value;
  Matrix grad;

  explicit Param(Matrix v)
      : value(std::move(v)), grad(value.rows(), value.cols()) {}
  Param() = default;

  void ZeroGrad() { grad.Fill(0.0); }
};

}  // namespace easytime::nn
