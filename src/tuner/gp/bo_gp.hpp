#pragma once
// Bayesian Optimization with a Gaussian Process surrogate (BO GP), matching
// the paper's scikit-optimize gp_minimize setup (Section VI-B): Expected
// Improvement acquisition, 8% of the budget as random initialization, the
// remaining 92% model-driven. As an SMBO method it searches the
// *unconstrained* space; failed configurations enter the model at a penalty
// value (the paper notes SMBO had no constraint support and still won).

#include "tuner/gp/gp_regressor.hpp"
#include "tuner/tuner.hpp"
#include "tuner/warm_start.hpp"

namespace repro::tuner {

struct BoGpOptions {
  double init_fraction = 0.08;      ///< random initialization share (paper: 8%)
  std::size_t min_init = 2;
  /// Acquisition optimization: random candidate pool + neighborhood
  /// refinement around the incumbent. The random pool grows when the GP is
  /// small (predictions are O(n^2), so early exploration is cheap exactly
  /// when it matters most — mirroring skopt's 10k-point sampling).
  std::size_t acquisition_pool = 128;      ///< minimum random pool
  std::size_t acquisition_budget = 32768;  ///< pool ~= budget / n
  std::size_t neighbor_candidates = 32;
  double xi = 0.01;  ///< EI exploration margin (skopt default)
  /// Re-run the hyperparameter search every this many observations.
  std::size_t hyperopt_interval = 25;
  /// Training-set cap for tractability: when exceeded, the model keeps the
  /// best half and the most recent half (documented deviation).
  std::size_t max_train_points = 120;
  /// Model log-runtimes (heavy-tailed targets); penalties follow suit.
  bool log_transform = true;
  /// Penalty multiplier (on the worst valid observation) for failures.
  double invalid_penalty_factor = 2.0;
  /// Ablation knob (paper Section V-C): when true, initialization and
  /// acquisition candidates are drawn from the executable sub-space, giving
  /// the SMBO method the constraint specification the paper withheld.
  bool constraint_aware = false;
  /// Cross-tenant warm start (tuner/warm_start.hpp): prior rows enter the
  /// GP training set as observations at zero budget cost, and random
  /// initialization shrinks to min_init. Null/empty = byte-identical cold
  /// path.
  PriorHandle prior;
};

class BoGp final : public SearchAlgorithm {
 public:
  explicit BoGp(BoGpOptions options = {}) : options_(options) {}

  [[nodiscard]] std::string name() const override { return "BO GP"; }

  TuneResult minimize(const ParamSpace& space, Evaluator& evaluator,
                      repro::Rng& rng) override;

 private:
  BoGpOptions options_;
};

/// Expected Improvement for minimization at posterior (mean, variance)
/// against incumbent `best`; 0 when variance is ~0.
[[nodiscard]] double expected_improvement(double mean, double variance, double best);

}  // namespace repro::tuner
