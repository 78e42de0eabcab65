// The seq:: kernels must reproduce the strict left-to-right loops the
// hot paths were written with, byte for byte (memcmp on the doubles, not
// EXPECT_DOUBLE_EQ — ULP-close is not good enough for the repro guarantee).

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"

namespace {

/// Deterministic, non-trivial data: mixed magnitudes so reassociation
/// actually changes low bits (uniform [0,1) sums can mask order bugs).
std::vector<double> test_data(std::uint64_t seed, std::size_t n) {
  repro::Rng rng(seed);
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = rng.uniform(-3.0, 3.0) * (i % 7 == 0 ? 1e6 : 1.0);
  }
  return x;
}

/// Sizes from empty through short, odd and power-of-two lengths to long
/// enough that an order bug would show in the low bits.
const std::vector<std::size_t>& test_sizes() {
  static const std::vector<std::size_t> sizes = {0,  1,  2,  3,   4,   5,
                                                 7,  8,  15, 16,  17,  64,
                                                 97, 256, 1000, 1023};
  return sizes;
}

bool bytes_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(Simd, SeqKernelsMatchStrictSequentialLoops) {
  for (const std::size_t n : test_sizes()) {
    const std::vector<double> a = test_data(0x5EED + n, n);
    const std::vector<double> b = test_data(0xF00D + n, n);
    double dot = 0.0, dist = 0.0, sq = 0.0, sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      dot += a[i] * b[i];
      const double d = a[i] - b[i];
      dist += d * d;
      sq += a[i] * a[i];
      sum += a[i];
    }
    EXPECT_TRUE(bytes_equal(dot, repro::simd::seq::dot(a.data(), b.data(), n)));
    EXPECT_TRUE(bytes_equal(
        dist, repro::simd::seq::squared_distance(a.data(), b.data(), n)));
    EXPECT_TRUE(bytes_equal(sq, repro::simd::seq::sum_squares(a.data(), n)));
    EXPECT_TRUE(bytes_equal(sum, repro::simd::seq::sum(a.data(), n)));
  }
}

TEST(Simd, GatheredSumAndSquaresMatchesFusedLoop) {
  const std::size_t n = 257;
  const std::vector<double> y = test_data(0xD00D, n);
  repro::Rng rng(7);
  std::vector<std::size_t> indices(191);
  for (std::size_t& index : indices) {
    index = static_cast<std::size_t>(rng.uniform(0.0, static_cast<double>(n)));
    if (index >= n) index = n - 1;
  }
  const std::vector<std::pair<std::size_t, std::size_t>> ranges = {
      {0, indices.size()}, {3, 140}, {10, 10}, {190, 191}};
  for (const auto& [begin, end] : ranges) {
    double sum = 0.0, sq = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      const double v = y[indices[i]];
      sum += v;
      sq += v * v;
    }
    double got_sum = -1.0, got_sq = -1.0;
    repro::simd::seq::gathered_sum_and_squares(y.data(), indices.data(), begin,
                                               end, got_sum, got_sq);
    EXPECT_TRUE(bytes_equal(sum, got_sum)) << begin << ".." << end;
    EXPECT_TRUE(bytes_equal(sq, got_sq)) << begin << ".." << end;
  }
}

}  // namespace
