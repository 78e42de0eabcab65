#pragma once
// Bayesian Optimization with Tree-Parzen Estimators (BO TPE), following
// Bergstra et al.'s Hyperopt, which the paper uses (Section VI-B).
//
// TPE splits observations at the gamma-quantile into "good" (l) and "bad"
// (g) sets, models each dimension with a smoothed categorical Parzen
// estimator over the discrete parameter values, samples candidates from
// l(x) and ranks them by the density ratio l(x)/g(x) — equivalent to
// Expected Improvement under the TPE factorization. Hyperopt defaults:
// 20 random startup trials, gamma = 0.25, 24 EI candidates per round.
// As an SMBO method, TPE searches the unconstrained space; failures are
// placed in the "bad" set.

#include "tuner/tuner.hpp"
#include "tuner/warm_start.hpp"

namespace repro::tuner {

struct BoTpeOptions {
  std::size_t n_startup = 20;     ///< random trials before the model kicks in
  double gamma = 0.25;            ///< good/bad split quantile
  std::size_t good_cap = 25;      ///< hyperopt caps the good set size
  std::size_t ei_candidates = 24; ///< candidates sampled from l(x) per round
  double prior_weight = 1.0;      ///< smoothing pseudo-count per value
  /// Ablation knob: draw startup/fallback samples and accept candidates
  /// only from the executable sub-space (see BoGpOptions::constraint_aware).
  bool constraint_aware = false;
  /// Cross-tenant warm start (tuner/warm_start.hpp): prior rows join the
  /// good/bad split at zero budget cost and displace that many startup
  /// draws. Null/empty = byte-identical cold path.
  PriorHandle prior;
};

class BoTpe final : public SearchAlgorithm {
 public:
  explicit BoTpe(BoTpeOptions options = {}) : options_(options) {}

  [[nodiscard]] std::string name() const override { return "BO TPE"; }

  TuneResult minimize(const ParamSpace& space, Evaluator& evaluator,
                      repro::Rng& rng) override;

 private:
  BoTpeOptions options_;
};

/// Per-dimension smoothed categorical Parzen estimator over [lo..hi].
/// Exposed for unit tests.
class ParzenCategorical {
 public:
  ParzenCategorical(int lo, int hi, double prior_weight);

  void add(int value, double weight = 1.0);
  [[nodiscard]] double probability(int value) const;
  [[nodiscard]] int sample(repro::Rng& rng) const;

 private:
  int lo_;
  std::vector<double> weights_;
  double total_ = 0.0;
};

}  // namespace repro::tuner
