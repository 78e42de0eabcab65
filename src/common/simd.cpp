#include "common/simd.hpp"

namespace repro::simd::seq {

double dot(const double* a, const double* b, std::size_t n) noexcept {
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) total += a[i] * b[i];
  return total;
}

double squared_distance(const double* a, const double* b, std::size_t n) noexcept {
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = a[i] - b[i];
    total += d * d;
  }
  return total;
}

double sum_squares(const double* x, std::size_t n) noexcept {
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) total += x[i] * x[i];
  return total;
}

double sum(const double* x, std::size_t n) noexcept {
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) total += x[i];
  return total;
}

void gathered_sum_and_squares(const double* y, const std::size_t* indices,
                              std::size_t begin, std::size_t end, double& sum,
                              double& sum_squares) noexcept {
  double s = 0.0;
  double sq = 0.0;
  for (std::size_t i = begin; i < end; ++i) {
    s += y[indices[i]];
    sq += y[indices[i]] * y[indices[i]];
  }
  sum = s;
  sum_squares = sq;
}

}  // namespace repro::simd::seq
