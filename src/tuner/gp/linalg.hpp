#pragma once
// Small dense linear algebra for Gaussian process regression: row-major
// square matrices, Cholesky factorization and triangular solves. Every inner
// reduction runs strictly left to right, the order the exact GP has always
// used, so the factors are byte-compatible with every committed campaign
// artifact.

#include <cstddef>
#include <span>
#include <vector>

namespace repro::tuner {

/// Row-major square matrix.
class Matrix {
 public:
  Matrix() = default;
  explicit Matrix(std::size_t n, double fill = 0.0) : n_(n), data_(n * n, fill) {}

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] double& at(std::size_t r, std::size_t c) noexcept { return data_[r * n_ + c]; }
  [[nodiscard]] double at(std::size_t r, std::size_t c) const noexcept {
    return data_[r * n_ + c];
  }
  [[nodiscard]] std::vector<double>& data() noexcept { return data_; }
  [[nodiscard]] const std::vector<double>& data() const noexcept { return data_; }

 private:
  std::size_t n_ = 0;
  std::vector<double> data_;
};

/// In-place lower Cholesky factorization A = L L^T (upper triangle is left
/// untouched). Returns false if A is not (numerically) positive definite.
[[nodiscard]] bool cholesky_inplace(Matrix& a);

/// Growable lower Cholesky factor in packed row storage (row i holds i+1
/// entries), built one appended row at a time.
///
/// Appending row n touches only row n and performs, per entry, the same
/// column-ordered arithmetic as `cholesky_inplace` on the full (n+1)-sized
/// matrix — sums over k ascending, then one divide by the column diagonal —
/// so growing a factor row by row is *bit-identical* to refactorizing from
/// scratch (tests/tuner/test_linalg.cpp asserts this). This is what turns
/// the GP surrogate's per-observation refit from O(n^3) into O(n^2).
class PackedCholesky {
 public:
  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  void clear() noexcept {
    n_ = 0;
    rows_.clear();
  }

  /// L(r, c) for c <= r.
  [[nodiscard]] double at(std::size_t r, std::size_t c) const noexcept {
    return rows_[r * (r + 1) / 2 + c];
  }
  /// Row r: L(r, 0..r), contiguous.
  [[nodiscard]] const double* row(std::size_t r) const noexcept {
    return rows_.data() + r * (r + 1) / 2;
  }

  /// Append the next row of the underlying SPD matrix: `a_row` holds
  /// A(n, 0..n-1) followed by the diagonal A(n, n) (noise/jitter already
  /// added), length n+1 for current size n. Returns false — leaving the
  /// factor unchanged — when the new pivot is not (numerically) positive,
  /// exactly the failure condition of `cholesky_inplace`.
  [[nodiscard]] bool append_row(std::span<const double> a_row);

  /// Bit-preserving copy of the lower triangle of an already-factorized
  /// Matrix (the reference path of GpRegressor::fit).
  [[nodiscard]] static PackedCholesky from_lower(const Matrix& l);

  /// Triangular solves and log-determinant, mirroring the Matrix-based
  /// routines' arithmetic exactly.
  void solve_lower(std::span<const double> b, std::span<double> x) const;
  void solve_lower_transpose(std::span<const double> b, std::span<double> x) const;
  void solve(std::span<const double> b, std::span<double> x) const;
  [[nodiscard]] double log_diag_sum() const;

 private:
  std::size_t n_ = 0;
  std::vector<double> rows_;  ///< packed lower triangle, row-major
};

/// Solve L x = b with L lower-triangular (forward substitution).
void solve_lower(const Matrix& l, std::span<const double> b, std::span<double> x);

/// Solve L^T x = b with L lower-triangular (backward substitution).
void solve_lower_transpose(const Matrix& l, std::span<const double> b, std::span<double> x);

/// Solve (L L^T) x = b given the Cholesky factor L.
void solve_cholesky(const Matrix& l, std::span<const double> b, std::span<double> x);

/// Sum of log of diagonal entries (log det(L) for a Cholesky factor).
[[nodiscard]] double log_diag_sum(const Matrix& l);

}  // namespace repro::tuner
