#pragma once
// Gaussian process regression with a Matérn-5/2 kernel plus white noise —
// the surrogate behind scikit-optimize's gp_minimize, which the paper uses
// for BO GP (Section VI-B). Targets are standardized internally; inputs are
// expected in [0,1]^d (ParamSpace::normalize).
//
// Hot path: SMBO refits the surrogate after *every* observation, so a naive
// implementation refactorizes a dense Cholesky from scratch each step —
// O(n^3) per step, O(n^4) per experiment. This regressor instead keeps one
// *growing* factor per hyperparameter candidate (the MAP grid in
// optimize_hyperparams re-fits the same training set under ~15 candidates):
// when fit() is called with the previous training set plus appended rows,
// each candidate's factor is extended row by row in O(n^2) using
// PackedCholesky::append_row, whose arithmetic is bit-identical to a full
// refactorization. The pairwise-distance matrix is likewise cached and
// grown incrementally (it is hyperparameter-independent), so kernel
// rebuilds cost O(n^2) matérn evaluations instead of O(n^2 d) distance
// computations per candidate. All cached paths produce bit-identical
// chol_/alpha_/lml_ to a from-scratch fit; tests assert this. Every
// reduction runs in strict sequential order (common/simd.hpp), so fits are
// byte-compatible with every committed campaign artifact. BO GP caps the
// training set at BoGpOptions::max_train_points, so n stays small.

#include <span>
#include <vector>

#include "tuner/gp/linalg.hpp"

namespace repro::tuner {

struct GpHyperparams {
  double lengthscale = 0.3;   ///< isotropic, in normalized input space
  double signal_variance = 1.0;
  double noise_variance = 1e-2;
};

/// Matérn-5/2 covariance between two points at distance r (scaled by ell).
[[nodiscard]] double matern52(double r, double lengthscale, double signal_variance);

struct GpPrediction {
  double mean = 0.0;
  double variance = 0.0;  ///< posterior variance (>= 0), in standardized units
};

class GpRegressor;

namespace detail {

/// True when the running CPU can run predict_batch's AVX2 body (checked once).
[[nodiscard]] bool gp_batch_has_avx2() noexcept;

/// predict_batch's AVX2 body for 1..kBatchLanes inputs, exposed so tests run
/// it whatever the dispatch picks. Requires gp_batch_has_avx2().
void gp_predict_batch_avx2(const GpRegressor& gp, std::span<const std::vector<double>> xs,
                           std::span<GpPrediction> out);

}  // namespace detail

class GpRegressor {
 public:
  /// Candidates predict_batch scores at once, one per SIMD lane.
  static constexpr std::size_t kBatchLanes = 8;

  explicit GpRegressor(GpHyperparams hyper = {}) : hyper_(hyper) {}

  /// Fit on normalized inputs and raw targets. Targets are standardized
  /// internally (mean 0, stddev 1). Returns false when the covariance
  /// matrix is not positive definite even after jitter escalation.
  bool fit(std::span<const std::vector<double>> X, std::span<const double> y);

  /// Posterior at a normalized input; mean is de-standardized, variance is
  /// reported in (de-standardized) target units squared.
  [[nodiscard]] GpPrediction predict(std::span<const double> x) const;

  /// out[j] = predict(xs[j]), bit for bit, for up to kBatchLanes inputs of
  /// one dimension, scored at once with the inputs in SIMD lanes (AVX2
  /// hosts; elsewhere it loops over predict).
  void predict_batch(std::span<const std::vector<double>> xs,
                     std::span<GpPrediction> out) const;

  /// Log marginal likelihood of the current fit (standardized units).
  [[nodiscard]] double log_marginal_likelihood() const noexcept { return lml_; }

  /// Maximize the LML over (lengthscale, noise) with a coarse-to-fine
  /// coordinate grid search, then refit. Requires at least 2 points.
  bool optimize_hyperparams(std::span<const std::vector<double>> X,
                            std::span<const double> y);

  [[nodiscard]] const GpHyperparams& hyperparams() const noexcept { return hyper_; }
  void set_hyperparams(const GpHyperparams& hyper) noexcept { hyper_ = hyper; }
  [[nodiscard]] bool fitted() const noexcept { return fitted_; }
  [[nodiscard]] std::size_t num_points() const noexcept { return X_.size(); }

  /// Disable the incremental factor/distance caches (every fit then runs
  /// the reference from-scratch path). For tests and micro-benchmarks; both
  /// modes produce bit-identical results.
  void set_incremental(bool enabled) noexcept { incremental_ = enabled; }
  [[nodiscard]] bool incremental() const noexcept { return incremental_; }

  /// Current factor / weights (exposed for the bit-identity tests).
  [[nodiscard]] const PackedCholesky& cholesky() const noexcept { return chol_; }
  [[nodiscard]] std::span<const double> alpha() const noexcept { return alpha_; }

  /// Cache-effectiveness counters (appended rows vs from-scratch columns).
  [[nodiscard]] std::size_t incremental_rows() const noexcept { return stat_rows_incremental_; }
  [[nodiscard]] std::size_t full_refactorizations() const noexcept { return stat_full_refits_; }

 private:
  friend void detail::gp_predict_batch_avx2(const GpRegressor&,
                                            std::span<const std::vector<double>>,
                                            std::span<GpPrediction>);

  [[nodiscard]] double kernel(std::span<const double> a, std::span<const double> b) const;

  /// Euclidean distance between cached training rows i and j (i > j),
  /// summed in dimension order exactly as kernel() does.
  [[nodiscard]] double distance(std::size_t i, std::size_t j) const;

  /// Grow dist_ with rows [from, X_.size()).
  void extend_distances(std::size_t from);

  /// Factor state for one hyperparameter candidate. `jitter` is the ladder
  /// value the last successful factorization used; the minimal workable
  /// ladder value never decreases as rows are appended (a failing leading
  /// submatrix fails the whole factorization), so smaller values are
  /// skipped without re-trying them — exactly reproducing what a full
  /// refit's jitter escalation would conclude.
  struct CandidateState {
    GpHyperparams hyper;
    PackedCholesky chol;
    double jitter = 0.0;
    bool failed = false;  ///< every ladder value failed (at chol.size()+ rows)
  };

  [[nodiscard]] CandidateState* find_candidate(const GpHyperparams& hyper);

  /// Append rows [state.chol.size(), n) to a candidate factor at its
  /// current jitter, escalating (from-scratch refactorization at the next
  /// ladder values) when an appended pivot fails. Returns false when the
  /// ladder is exhausted. Bit-identical to the reference path.
  bool factorize(CandidateState& state, std::size_t n);

  /// From-scratch factorization at one jitter value via append_row.
  bool refactorize_at(PackedCholesky& chol, std::size_t n, double jitter);

  /// Solve for alpha_ and the LML given the current factor and targets.
  void finish_fit(std::span<const double> y);

  /// predict()'s last step, shared with predict_batch: de-standardize the
  /// mean dot k*.alpha and the forward solve's sum of squares.
  [[nodiscard]] GpPrediction finish_prediction(double mean_std, double reduction) const;

  GpHyperparams hyper_;
  bool incremental_ = true;
  std::vector<std::vector<double>> X_;
  std::vector<double> dist_;    ///< packed pairwise distances, row i has i entries
  std::vector<CandidateState> candidates_;
  std::vector<double> alpha_;   ///< (K + sigma^2 I)^{-1} y_standardized
  PackedCholesky chol_;         ///< lower Cholesky factor of the current fit
  double y_mean_ = 0.0;
  double y_std_ = 1.0;
  double lml_ = 0.0;
  bool fitted_ = false;
  std::size_t stat_rows_incremental_ = 0;
  std::size_t stat_full_refits_ = 0;
};

}  // namespace repro::tuner
