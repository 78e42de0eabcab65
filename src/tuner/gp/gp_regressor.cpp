#include "tuner/gp/gp_regressor.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/simd.hpp"
#include "stats/descriptive.hpp"

namespace repro::tuner {
namespace {

// Jitter escalation ladder: 1e-10, 1e-8, ..., 1e-2. Every factorization
// path (reference, incremental append, escalation) iterates these exact
// doubles — generated by the same multiplication — so a cached "this ladder
// value failed" conclusion transfers bit-exactly between paths.
constexpr double kJitterStart = 1e-10;
constexpr double kJitterEnd = 1e-2;
constexpr double kJitterStep = 100.0;

}  // namespace

double matern52(double r, double lengthscale, double signal_variance) {
  const double s = std::sqrt(5.0) * r / lengthscale;
  return signal_variance * (1.0 + s + s * s / 3.0) * std::exp(-s);
}

double GpRegressor::kernel(std::span<const double> a, std::span<const double> b) const {
  const double sq = simd::seq::squared_distance(a.data(), b.data(), a.size());
  return matern52(std::sqrt(sq), hyper_.lengthscale, hyper_.signal_variance);
}

double GpRegressor::distance(std::size_t i, std::size_t j) const {
  return dist_[i * (i - 1) / 2 + j];
}

void GpRegressor::extend_distances(std::size_t from) {
  const std::size_t n = X_.size();
  dist_.resize(n * (n - 1) / 2);
  for (std::size_t i = std::max<std::size_t>(from, 1); i < n; ++i) {
    double* row = dist_.data() + i * (i - 1) / 2;
    for (std::size_t j = 0; j < i; ++j) {
      // Same accumulation order as kernel(), so matern52(distance(i, j))
      // reproduces kernel(X_[i], X_[j]) bitwise.
      row[j] = std::sqrt(
          simd::seq::squared_distance(X_[i].data(), X_[j].data(), X_[i].size()));
    }
  }
}

GpRegressor::CandidateState* GpRegressor::find_candidate(const GpHyperparams& hyper) {
  for (CandidateState& state : candidates_) {
    if (state.hyper.lengthscale == hyper.lengthscale &&
        state.hyper.signal_variance == hyper.signal_variance &&
        state.hyper.noise_variance == hyper.noise_variance) {
      return &state;
    }
  }
  return nullptr;
}

bool GpRegressor::refactorize_at(PackedCholesky& chol, std::size_t n, double jitter) {
  ++stat_full_refits_;
  chol.clear();
  std::vector<double> a_row(n);
  // Grouping matters: the reference path writes K(i,i) = signal_variance
  // and then adds (noise + jitter) in one +=, i.e. sv + (noise + jitter).
  const double diag =
      hyper_.signal_variance + (hyper_.noise_variance + jitter);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      a_row[j] = matern52(distance(i, j), hyper_.lengthscale, hyper_.signal_variance);
    }
    a_row[i] = diag;
    if (!chol.append_row(std::span<const double>(a_row.data(), i + 1))) return false;
  }
  return true;
}

bool GpRegressor::factorize(CandidateState& state, std::size_t n) {
  if (state.failed) return false;
  double jitter = state.jitter;
  if (state.chol.size() > 0) {
    // Append rows [m, n) at the jitter the existing factor was built with.
    // Ladder values below it already failed on the leading submatrix, and a
    // factorization that fails on a leading submatrix fails outright, so a
    // from-scratch refit would reject them again — no need to re-try.
    bool appended = true;
    std::vector<double> a_row;
    const double diag =
        hyper_.signal_variance + (hyper_.noise_variance + jitter);
    for (std::size_t i = state.chol.size(); i < n; ++i) {
      a_row.resize(i + 1);
      for (std::size_t j = 0; j < i; ++j) {
        a_row[j] = matern52(distance(i, j), hyper_.lengthscale, hyper_.signal_variance);
      }
      a_row[i] = diag;
      if (!state.chol.append_row(a_row)) {
        appended = false;
        break;
      }
      ++stat_rows_incremental_;
    }
    if (appended) return true;
  } else {
    // Fresh candidate: walk the ladder from the bottom.
    jitter = 0.0;
  }
  for (double j = kJitterStart; j <= kJitterEnd; j *= kJitterStep) {
    if (j <= jitter) continue;  // known to fail at this (or a smaller) size
    if (refactorize_at(state.chol, n, j)) {
      state.jitter = j;
      return true;
    }
  }
  state.failed = true;
  return false;
}

void GpRegressor::finish_fit(std::span<const double> ys) {
  const std::size_t n = ys.size();
  alpha_.assign(n, 0.0);
  chol_.solve(ys, alpha_);
  const double fit_term = simd::seq::dot(ys.data(), alpha_.data(), n);
  lml_ = -0.5 * fit_term - chol_.log_diag_sum() -
         0.5 * static_cast<double>(n) * std::log(2.0 * 3.14159265358979323846);
  fitted_ = true;
}

bool GpRegressor::fit(std::span<const std::vector<double>> X, std::span<const double> y) {
  if (X.size() != y.size() || X.empty()) {
    throw std::invalid_argument("GpRegressor::fit: bad training set");
  }
  const std::size_t n = X.size();

  std::vector<double> ys(n);
  {
    double y_mean = stats::mean(y);
    double y_std = std::max(stats::stddev(y), 1e-12);
    y_mean_ = y_mean;
    y_std_ = y_std;
    for (std::size_t i = 0; i < n; ++i) ys[i] = (y[i] - y_mean_) / y_std_;
  }

  if (!incremental_) {
    // Reference path: dense covariance + from-scratch factorization, as a
    // plain GP implementation would do every step. Kept both as the oracle
    // the incremental path is tested against and for micro-benchmarks.
    X_.assign(X.begin(), X.end());
    dist_.clear();
    candidates_.clear();
    for (double jitter = kJitterStart; jitter <= kJitterEnd; jitter *= kJitterStep) {
      Matrix k(n);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j <= i; ++j) {
          const double value = kernel(X_[i], X_[j]);
          k.at(i, j) = value;
          k.at(j, i) = value;
        }
        k.at(i, i) += hyper_.noise_variance + jitter;
      }
      if (!cholesky_inplace(k)) continue;
      chol_ = PackedCholesky::from_lower(k);
      finish_fit(ys);
      return true;
    }
    fitted_ = false;
    return false;
  }

  // Relate X to the cached training set: identical, an append, or a reset.
  bool prefix = X_.size() <= n && dist_.size() == X_.size() * (X_.size() - 1) / 2;
  for (std::size_t i = 0; prefix && i < X_.size(); ++i) prefix = X[i] == X_[i];
  if (!prefix) {
    X_.assign(X.begin(), X.end());
    dist_.clear();
    candidates_.clear();
    extend_distances(0);
  } else if (X_.size() < n) {
    const std::size_t old = X_.size();
    X_.insert(X_.end(), X.begin() + static_cast<std::ptrdiff_t>(old), X.end());
    extend_distances(old);
  }

  CandidateState* state = find_candidate(hyper_);
  if (state == nullptr) {
    candidates_.push_back(CandidateState{hyper_, {}, 0.0, false});
    state = &candidates_.back();
  }
  if (!factorize(*state, n)) {
    fitted_ = false;
    return false;
  }
  chol_ = state->chol;
  finish_fit(ys);
  return true;
}

GpPrediction GpRegressor::predict(std::span<const double> x) const {
  if (!fitted_) throw std::logic_error("GpRegressor::predict before fit");
  const std::size_t n = X_.size();
  std::vector<double> k_star(n);
  for (std::size_t i = 0; i < n; ++i) k_star[i] = kernel(x, X_[i]);

  const double mean_std = simd::seq::dot(k_star.data(), alpha_.data(), n);
  std::vector<double> v(n);
  chol_.solve_lower(k_star, v);
  return finish_prediction(mean_std, simd::seq::sum_squares(v.data(), n));
}

GpPrediction GpRegressor::finish_prediction(double mean_std, double reduction) const {
  GpPrediction out;
  out.mean = mean_std * y_std_ + y_mean_;
  const double var_std =
      std::max(0.0, hyper_.signal_variance + hyper_.noise_variance - reduction);
  out.variance = var_std * y_std_ * y_std_;
  return out;
}

bool GpRegressor::optimize_hyperparams(std::span<const std::vector<double>> X,
                                       std::span<const double> y) {
  if (X.size() < 2) return fit(X, y);
  static constexpr double kLengthscales[] = {0.1, 0.2, 0.35, 0.6, 1.0};
  static constexpr double kNoises[] = {1e-3, 1e-2, 1e-1};

  // MAP rather than plain MLE: weak lognormal priors keep small-n fits
  // smooth (ell ~ 0.5) and honestly noisy (sigma_n^2 ~ 1e-2). Without them
  // a 2-5 point fit happily picks the shortest lengthscale and the EI
  // acquisition collapses into one-step hill climbing.
  const auto log_prior = [](const GpHyperparams& h) {
    const double dl = std::log(h.lengthscale / 0.5);
    const double dn = std::log(h.noise_variance / 1e-2);
    return -0.5 * (dl * dl) / (0.8 * 0.8) - 0.5 * (dn * dn) / (2.0 * 2.0);
  };

  GpHyperparams best = hyper_;
  double best_posterior = -std::numeric_limits<double>::infinity();
  for (double lengthscale : kLengthscales) {
    for (double noise : kNoises) {
      hyper_.lengthscale = lengthscale;
      hyper_.noise_variance = noise;
      hyper_.signal_variance = 1.0;  // targets are standardized
      if (!fit(X, y)) continue;
      const double posterior = lml_ + log_prior(hyper_);
      if (posterior > best_posterior) {
        best_posterior = posterior;
        best = hyper_;
      }
    }
  }
  hyper_ = best;
  return fit(X, y);
}

}  // namespace repro::tuner
