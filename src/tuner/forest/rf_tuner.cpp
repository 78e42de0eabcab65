#include "tuner/forest/rf_tuner.hpp"

#include <algorithm>
#include <unordered_set>

#include "common/thread_pool.hpp"

namespace repro::tuner {

TuneResult RandomForestTuner::minimize(const ParamSpace& space, Evaluator& evaluator,
                                       repro::Rng& rng) {
  const std::size_t budget = evaluator.budget();
  const std::size_t predictions = std::min(options_.top_predictions, budget);
  const std::size_t train_budget = budget - predictions;

  // Warm start: valid prior tenant rows pretrain the forest at zero budget
  // cost. They stay out of `seen` (a promising prior config may be
  // re-measured via the candidate pool) and out of the evaluator.
  std::vector<std::vector<double>> X;
  std::vector<double> y;
  std::unordered_set<std::uint64_t> seen;
  if (warm_start::has_rows(options_.prior)) {
    for (const PriorObservation& row :
         warm_start::compatible_rows(*options_.prior, space)) {
      if (!row.valid) continue;  // the forest trains on runtimes only
      X.push_back(space.normalize(row.config));
      y.push_back(row.value);
    }
  }

  // Stage 1: collect the training set (each sample measured once).
  X.reserve(X.size() + train_budget);
  y.reserve(y.size() + train_budget);
  try {
    std::size_t draws = 0;
    const std::size_t max_draws = 64 * budget + 64;
    while (evaluator.used() < train_budget && draws++ < max_draws) {
      const Configuration config = space.sample_executable(rng);
      const std::uint64_t key = space.encode(config);
      if (!seen.insert(key).second) continue;  // cached duplicate, skip
      const Evaluation eval = evaluator.evaluate(config);
      if (!eval.valid) continue;  // executable pre-filtering makes this rare
      X.push_back(space.normalize(config));
      y.push_back(eval.value);
    }
  } catch (const BudgetExhausted&) {
    return result_from(evaluator);
  }

  if (X.size() < 2) {
    // Degenerate training set: spend the remaining budget randomly.
    try {
      while (!evaluator.exhausted()) {
        (void)evaluator.evaluate(space.sample_executable(rng));
      }
    } catch (const BudgetExhausted&) {
    }
    return result_from(evaluator);
  }

  // Stage 2: fit and rank an executable candidate pool.
  RandomForestRegressor forest(options_.forest);
  forest.fit(X, y, rng);

  struct Scored {
    double prediction;
    Configuration config;
  };
  // Sampling consumes the RNG stream, so it stays sequential; predictions
  // are pure forest traversals and run batched through parallel_for. The
  // pool order (and thus the partial_sort result) matches the fused loop.
  std::vector<Scored> pool;
  pool.reserve(options_.candidate_pool);
  for (std::size_t i = 0; i < options_.candidate_pool; ++i) {
    Configuration candidate = space.sample_executable(rng);
    if (seen.contains(space.encode(candidate))) continue;  // already measured
    pool.push_back({0.0, std::move(candidate)});
  }
  repro::parallel_for(
      0, pool.size(),
      [&](std::size_t i) {
        pool[i].prediction = forest.predict(space.normalize(pool[i].config));
      },
      32);
  const std::size_t keep = std::min(predictions, pool.size());
  std::partial_sort(pool.begin(), pool.begin() + keep, pool.end(),
                    [](const Scored& a, const Scored& b) {
                      return a.prediction < b.prediction;
                    });

  // Measure the top predictions; best observation wins.
  try {
    for (std::size_t i = 0; i < keep; ++i) {
      (void)evaluator.evaluate(pool[i].config);
    }
  } catch (const BudgetExhausted&) {
  }
  return result_from(evaluator);
}

}  // namespace repro::tuner
