#include "tuner/gp/linalg.hpp"

#include <cassert>
#include <cmath>

namespace repro::tuner {

bool cholesky_inplace(Matrix& a) {
  const std::size_t n = a.size();
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a.at(j, j);
    for (std::size_t k = 0; k < j; ++k) diag -= a.at(j, k) * a.at(j, k);
    if (diag <= 0.0 || !std::isfinite(diag)) return false;
    const double root = std::sqrt(diag);
    a.at(j, j) = root;
    for (std::size_t i = j + 1; i < n; ++i) {
      double value = a.at(i, j);
      for (std::size_t k = 0; k < j; ++k) value -= a.at(i, k) * a.at(j, k);
      a.at(i, j) = value / root;
    }
  }
  return true;
}

bool PackedCholesky::append_row(std::span<const double> a_row) {
  const std::size_t n = n_;
  assert(a_row.size() == n + 1);
  rows_.resize((n + 1) * (n + 2) / 2);
  double* row = rows_.data() + n * (n + 1) / 2;
  // Row entries in column order: identical arithmetic to cholesky_inplace,
  // which for column k computes a(n,k) -= sum_{j<k} a(n,j)*a(k,j), then
  // divides by the column-k pivot.
  for (std::size_t k = 0; k < n; ++k) {
    double value = a_row[k];
    const double* col_row = rows_.data() + k * (k + 1) / 2;
    for (std::size_t j = 0; j < k; ++j) value -= row[j] * col_row[j];
    row[k] = value / col_row[k];
  }
  double diag = a_row[n];
  for (std::size_t k = 0; k < n; ++k) diag -= row[k] * row[k];
  if (diag <= 0.0 || !std::isfinite(diag)) {
    rows_.resize(n * (n + 1) / 2);  // leave the factor as it was
    return false;
  }
  row[n] = std::sqrt(diag);
  n_ = n + 1;
  return true;
}

PackedCholesky PackedCholesky::from_lower(const Matrix& l) {
  PackedCholesky out;
  out.n_ = l.size();
  out.rows_.resize(out.n_ * (out.n_ + 1) / 2);
  for (std::size_t i = 0; i < out.n_; ++i) {
    for (std::size_t j = 0; j <= i; ++j) out.rows_[i * (i + 1) / 2 + j] = l.at(i, j);
  }
  return out;
}

void PackedCholesky::solve_lower(std::span<const double> b, std::span<double> x) const {
  assert(b.size() == n_ && x.size() == n_);
  for (std::size_t i = 0; i < n_; ++i) {
    const double* row = rows_.data() + i * (i + 1) / 2;
    double value = b[i];
    for (std::size_t k = 0; k < i; ++k) value -= row[k] * x[k];
    x[i] = value / row[i];
  }
}

void PackedCholesky::solve_lower_transpose(std::span<const double> b,
                                           std::span<double> x) const {
  assert(b.size() == n_ && x.size() == n_);
  for (std::size_t i = n_; i-- > 0;) {
    double value = b[i];
    for (std::size_t k = i + 1; k < n_; ++k) value -= at(k, i) * x[k];
    x[i] = value / at(i, i);
  }
}

void PackedCholesky::solve(std::span<const double> b, std::span<double> x) const {
  std::vector<double> tmp(n_);
  solve_lower(b, tmp);
  solve_lower_transpose(tmp, x);
}

double PackedCholesky::log_diag_sum() const {
  double sum = 0.0;
  for (std::size_t i = 0; i < n_; ++i) sum += std::log(at(i, i));
  return sum;
}

void solve_lower(const Matrix& l, std::span<const double> b, std::span<double> x) {
  const std::size_t n = l.size();
  assert(b.size() == n && x.size() == n);
  for (std::size_t i = 0; i < n; ++i) {
    double value = b[i];
    for (std::size_t k = 0; k < i; ++k) value -= l.at(i, k) * x[k];
    x[i] = value / l.at(i, i);
  }
}

void solve_lower_transpose(const Matrix& l, std::span<const double> b, std::span<double> x) {
  const std::size_t n = l.size();
  assert(b.size() == n && x.size() == n);
  for (std::size_t i = n; i-- > 0;) {
    double value = b[i];
    for (std::size_t k = i + 1; k < n; ++k) value -= l.at(k, i) * x[k];
    x[i] = value / l.at(i, i);
  }
}

void solve_cholesky(const Matrix& l, std::span<const double> b, std::span<double> x) {
  std::vector<double> tmp(l.size());
  solve_lower(l, b, tmp);
  solve_lower_transpose(l, tmp, x);
}

double log_diag_sum(const Matrix& l) {
  double sum = 0.0;
  for (std::size_t i = 0; i < l.size(); ++i) sum += std::log(l.at(i, i));
  return sum;
}

}  // namespace repro::tuner
