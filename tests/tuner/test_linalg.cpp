// Dense linear algebra for the GP: Cholesky, triangular solves, properties.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "tuner/gp/linalg.hpp"

namespace repro::tuner {
namespace {

Matrix random_spd(std::size_t n, repro::Rng& rng) {
  // A = B B^T + n*I is symmetric positive definite.
  Matrix b(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) b.at(i, j) = rng.uniform(-1.0, 1.0);
  }
  Matrix a(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double sum = 0.0;
      for (std::size_t k = 0; k < n; ++k) sum += b.at(i, k) * b.at(j, k);
      a.at(i, j) = sum + (i == j ? static_cast<double>(n) : 0.0);
    }
  }
  return a;
}

TEST(Linalg, CholeskyKnown2x2) {
  Matrix a(2);
  a.at(0, 0) = 4.0;
  a.at(0, 1) = 2.0;
  a.at(1, 0) = 2.0;
  a.at(1, 1) = 3.0;
  ASSERT_TRUE(cholesky_inplace(a));
  EXPECT_DOUBLE_EQ(a.at(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(a.at(1, 0), 1.0);
  EXPECT_NEAR(a.at(1, 1), std::sqrt(2.0), 1e-12);
}

TEST(Linalg, CholeskyFailsOnIndefinite) {
  Matrix a(2);
  a.at(0, 0) = 1.0;
  a.at(0, 1) = 2.0;
  a.at(1, 0) = 2.0;
  a.at(1, 1) = 1.0;  // eigenvalues 3, -1
  EXPECT_FALSE(cholesky_inplace(a));
}

TEST(Linalg, CholeskyReconstructsMatrix) {
  repro::Rng rng(1);
  for (std::size_t n : {1u, 3u, 8u, 20u}) {
    Matrix a = random_spd(n, rng);
    const Matrix original = a;
    ASSERT_TRUE(cholesky_inplace(a));
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j <= i; ++j) {
        double sum = 0.0;
        for (std::size_t k = 0; k <= j; ++k) sum += a.at(i, k) * a.at(j, k);
        EXPECT_NEAR(sum, original.at(i, j), 1e-9) << "n=" << n;
      }
    }
  }
}

TEST(Linalg, SolvesRecoverKnownVector) {
  repro::Rng rng(2);
  const std::size_t n = 12;
  Matrix a = random_spd(n, rng);
  const Matrix original = a;
  ASSERT_TRUE(cholesky_inplace(a));
  std::vector<double> x_true(n), b(n, 0.0), x(n);
  for (auto& v : x_true) v = rng.uniform(-2.0, 2.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) b[i] += original.at(i, j) * x_true[j];
  }
  solve_cholesky(a, b, x);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-8);
}

TEST(Linalg, TriangularSolvesInverses) {
  // solve_lower then multiply back by L gives the original vector.
  repro::Rng rng(3);
  Matrix a = random_spd(6, rng);
  ASSERT_TRUE(cholesky_inplace(a));
  std::vector<double> b = {1, -2, 3, 0.5, -1, 2};
  std::vector<double> y(6), back(6, 0.0);
  solve_lower(a, b, y);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t k = 0; k <= i; ++k) back[i] += a.at(i, k) * y[k];
  }
  for (std::size_t i = 0; i < 6; ++i) EXPECT_NEAR(back[i], b[i], 1e-10);
}

TEST(Linalg, LogDiagSumIsHalfLogDet) {
  Matrix a(2);
  a.at(0, 0) = 4.0;
  a.at(0, 1) = 0.0;
  a.at(1, 0) = 0.0;
  a.at(1, 1) = 9.0;  // det 36
  ASSERT_TRUE(cholesky_inplace(a));
  EXPECT_NEAR(log_diag_sum(a), 0.5 * std::log(36.0), 1e-12);
}

// --- PackedCholesky: the append-row incremental factor ----------------------

std::vector<double> matrix_row(const Matrix& a, std::size_t i) {
  std::vector<double> row(i + 1);
  for (std::size_t j = 0; j <= i; ++j) row[j] = a.at(i, j);
  return row;
}

TEST(PackedCholesky, AppendRowsBitIdenticalToFullFactorization) {
  // Building the factor row by row must reproduce cholesky_inplace bit for
  // bit (not just to tolerance): entries come from the same ascending-k dot
  // products and the same pivot divisions, in the same order.
  repro::Rng rng(7);
  for (std::size_t n : {1u, 2u, 5u, 13u, 32u}) {
    Matrix a = random_spd(n, rng);
    Matrix full = a;
    ASSERT_TRUE(cholesky_inplace(full));

    PackedCholesky inc;
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(inc.append_row(matrix_row(a, i))) << "n=" << n << " i=" << i;
    }
    ASSERT_EQ(inc.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j <= i; ++j) {
        const double expected = full.at(i, j);
        const double got = inc.at(i, j);
        EXPECT_EQ(std::memcmp(&expected, &got, sizeof(double)), 0)
            << "n=" << n << " (" << i << "," << j << ")";
      }
    }
  }
}

TEST(PackedCholesky, FromLowerMatchesAppendRows) {
  repro::Rng rng(8);
  Matrix a = random_spd(9, rng);
  Matrix full = a;
  ASSERT_TRUE(cholesky_inplace(full));
  const PackedCholesky via_matrix = PackedCholesky::from_lower(full);
  PackedCholesky via_append;
  for (std::size_t i = 0; i < 9; ++i) {
    ASSERT_TRUE(via_append.append_row(matrix_row(a, i)));
  }
  for (std::size_t i = 0; i < 9; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      const double lhs = via_matrix.at(i, j);
      const double rhs = via_append.at(i, j);
      EXPECT_EQ(std::memcmp(&lhs, &rhs, sizeof(double)), 0);
    }
  }
}

TEST(PackedCholesky, FailedAppendLeavesFactorUsable) {
  // Appending a row that breaks positive definiteness must fail exactly
  // where cholesky_inplace would, and leave the existing factor intact so
  // the caller can retry (jitter escalation) or keep using it.
  PackedCholesky chol;
  ASSERT_TRUE(chol.append_row(std::vector<double>{4.0}));
  ASSERT_TRUE(chol.append_row(std::vector<double>{2.0, 3.0}));
  const double d00 = chol.at(0, 0);
  const double d10 = chol.at(1, 0);
  const double d11 = chol.at(1, 1);

  // Row making the matrix singular: third row = first row scaled, diag too
  // small. With rows (4,2,4),(2,3,2),(4,2,4) the Schur complement is 0.
  EXPECT_FALSE(chol.append_row(std::vector<double>{4.0, 2.0, 4.0}));
  EXPECT_EQ(chol.size(), 2u);
  EXPECT_EQ(chol.at(0, 0), d00);
  EXPECT_EQ(chol.at(1, 0), d10);
  EXPECT_EQ(chol.at(1, 1), d11);

  // The same 3x3 matrix fails the reference factorization too.
  Matrix a(3);
  a.at(0, 0) = 4.0; a.at(0, 1) = 2.0; a.at(0, 2) = 4.0;
  a.at(1, 0) = 2.0; a.at(1, 1) = 3.0; a.at(1, 2) = 2.0;
  a.at(2, 0) = 4.0; a.at(2, 1) = 2.0; a.at(2, 2) = 4.0;
  EXPECT_FALSE(cholesky_inplace(a));

  // And a workable third row still appends afterwards.
  EXPECT_TRUE(chol.append_row(std::vector<double>{1.0, 1.0, 5.0}));
  EXPECT_EQ(chol.size(), 3u);
}

TEST(PackedCholesky, SolvesMatchMatrixSolves) {
  repro::Rng rng(9);
  const std::size_t n = 11;
  Matrix a = random_spd(n, rng);
  Matrix full = a;
  ASSERT_TRUE(cholesky_inplace(full));
  const PackedCholesky packed = PackedCholesky::from_lower(full);

  std::vector<double> b(n);
  for (auto& v : b) v = rng.uniform(-2.0, 2.0);
  std::vector<double> x_matrix(n), x_packed(n);
  solve_cholesky(full, b, x_matrix);
  packed.solve(b, x_packed);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(std::memcmp(&x_matrix[i], &x_packed[i], sizeof(double)), 0) << i;
  }
  EXPECT_EQ(packed.log_diag_sum(), log_diag_sum(full));
}

TEST(PackedCholesky, ForwardSolveRoundsProductAndDifferenceSeparately) {
  // L = [[1, 0], [1 + 2^-30, 1]]. The product L(1,0) * x0 = (1 + 2^-30)^2
  // rounds to 1 + 2^-29, so b1 - L(1,0) * x0 is exactly 0. A build that
  // contracts the multiply and subtract into one FMA keeps the product's
  // 2^-60 and returns -2^-60: this pins the unfused rounding that every
  // committed figure was computed with.
  const double t = std::ldexp(1.0, -30);
  PackedCholesky chol;
  ASSERT_TRUE(chol.append_row(std::vector<double>{1.0}));
  ASSERT_TRUE(chol.append_row(std::vector<double>{1.0 + t, 2.0 + 2.0 * t}));
  ASSERT_EQ(chol.at(1, 0), 1.0 + t);
  ASSERT_EQ(chol.at(1, 1), 1.0);
  const std::vector<double> b = {1.0 + t, 1.0 + 2.0 * t};
  std::vector<double> x(2);
  chol.solve_lower(b, x);
  EXPECT_EQ(x[0], 1.0 + t);
  EXPECT_EQ(x[1], 0.0) << "fused multiply-add gives " << x[1];
}

TEST(PackedCholesky, ClearResetsToEmpty) {
  PackedCholesky chol;
  ASSERT_TRUE(chol.append_row(std::vector<double>{1.0}));
  chol.clear();
  EXPECT_EQ(chol.size(), 0u);
  ASSERT_TRUE(chol.append_row(std::vector<double>{9.0}));
  EXPECT_EQ(chol.at(0, 0), 3.0);
}

}  // namespace
}  // namespace repro::tuner
