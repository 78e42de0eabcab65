#include "tuner/gp/bo_gp.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <numeric>
#include <span>
#include <unordered_set>

#include "common/thread_pool.hpp"
#include "stats/descriptive.hpp"

namespace repro::tuner {

double expected_improvement(double mean, double variance, double best) {
  const double sd = std::sqrt(std::max(variance, 0.0));
  if (sd < 1e-12) return std::max(best - mean, 0.0);
  const double z = (best - mean) / sd;
  const double pdf = std::exp(-0.5 * z * z) / std::sqrt(2.0 * 3.14159265358979323846);
  return (best - mean) * stats::normal_cdf(z) + sd * pdf;
}

namespace {

/// Observation log in model space (targets possibly log-transformed,
/// failures replaced by a penalty).
struct History {
  std::vector<Configuration> configs;
  std::vector<double> raw;     ///< model-space value, NaN for failures
  std::vector<bool> valid;
};

}  // namespace

TuneResult BoGp::minimize(const ParamSpace& space, Evaluator& evaluator,
                          repro::Rng& rng) {
  const std::size_t budget = evaluator.budget();
  // Warm start: prior tenant history replaces most of the random-init
  // phase — the surrogate already knows the landscape, so only min_init
  // fresh draws anchor it before model-driven proposals begin.
  std::vector<PriorObservation> prior_rows;
  if (warm_start::has_rows(options_.prior)) {
    prior_rows = warm_start::compatible_rows(*options_.prior, space);
  }
  const std::size_t init =
      prior_rows.empty()
          ? std::min(budget,
                     std::max(options_.min_init,
                              static_cast<std::size_t>(std::llround(
                                  options_.init_fraction * static_cast<double>(budget)))))
          : std::min(budget, options_.min_init);

  History history;
  std::unordered_set<std::uint64_t> proposed;
  // Prior rows are observations at zero budget cost. They stay out of
  // `proposed` (the search may re-measure a promising prior config) and out
  // of the evaluator (the reported best is in-session only).
  for (const PriorObservation& row : prior_rows) {
    history.configs.push_back(row.config);
    history.valid.push_back(row.valid);
    double value = std::numeric_limits<double>::quiet_NaN();
    if (row.valid) value = options_.log_transform ? std::log(row.value) : row.value;
    history.raw.push_back(value);
  }

  auto observe = [&](const Configuration& config) {
    proposed.insert(space.encode(config));
    const Evaluation eval = evaluator.evaluate(config);
    history.configs.push_back(config);
    history.valid.push_back(eval.valid);
    double value = std::numeric_limits<double>::quiet_NaN();
    if (eval.valid) {
      value = options_.log_transform ? std::log(eval.value) : eval.value;
    }
    history.raw.push_back(value);
  };

  const auto draw = [&](repro::Rng& r) {
    return options_.constraint_aware ? space.sample_executable(r) : space.sample(r);
  };

  try {
    // SMBO: unconstrained random initialization (failures possible) unless
    // the constraint-aware ablation is enabled.
    for (std::size_t i = 0; i < init; ++i) observe(draw(rng));

    GpRegressor gp;
    std::size_t last_hyperopt = 0;
    for (;;) {
      // Assemble the training set: penalize failures against the worst
      // valid observation so the model learns to avoid those regions.
      double worst = -std::numeric_limits<double>::infinity();
      double best = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < history.raw.size(); ++i) {
        if (!history.valid[i]) continue;
        worst = std::max(worst, history.raw[i]);
        best = std::min(best, history.raw[i]);
      }
      const bool any_valid = std::isfinite(best);
      const double penalty =
          any_valid ? (options_.log_transform
                           ? worst + std::log(options_.invalid_penalty_factor)
                           : worst * options_.invalid_penalty_factor)
                    : 1.0;

      std::vector<std::size_t> order(history.configs.size());
      std::iota(order.begin(), order.end(), std::size_t{0});
      if (order.size() > options_.max_train_points) {
        // Keep the best half and the most recent half (tractability cap).
        std::vector<std::size_t> by_value = order;
        std::sort(by_value.begin(), by_value.end(), [&](std::size_t a, std::size_t b) {
          const double va = history.valid[a] ? history.raw[a] : penalty;
          const double vb = history.valid[b] ? history.raw[b] : penalty;
          return va < vb;
        });
        const std::size_t half = options_.max_train_points / 2;
        std::unordered_set<std::size_t> chosen(by_value.begin(), by_value.begin() + half);
        for (std::size_t i = history.configs.size();
             i-- > 0 && chosen.size() < options_.max_train_points;) {
          chosen.insert(i);
        }
        order.assign(chosen.begin(), chosen.end());
        std::sort(order.begin(), order.end());
      }

      std::vector<std::vector<double>> X;
      std::vector<double> y;
      X.reserve(order.size());
      y.reserve(order.size());
      for (std::size_t i : order) {
        X.push_back(space.normalize(history.configs[i]));
        y.push_back(history.valid[i] ? history.raw[i] : penalty);
      }

      bool model_ok = false;
      if (X.size() >= 2) {
        if (history.configs.size() >= last_hyperopt + options_.hyperopt_interval ||
            !gp.fitted()) {
          model_ok = gp.optimize_hyperparams(X, y);
          last_hyperopt = history.configs.size();
        } else {
          model_ok = gp.fit(X, y);
        }
      }

      if (!model_ok) {
        observe(draw(rng));  // fall back to random until fit succeeds
        continue;
      }

      // Incumbent in model space for EI.
      const double incumbent = any_valid ? best : penalty;

      // Candidate set: random pool + neighborhood of the best valid config.
      const std::size_t pool_size =
          std::max(options_.acquisition_pool,
                   options_.acquisition_budget / std::max<std::size_t>(gp.num_points(), 1));
      const bool with_neighbors = evaluator.has_best();
      const std::size_t neighbor_count =
          with_neighbors ? options_.neighbor_candidates : 0;
      const Configuration anchor = with_neighbors ? evaluator.best_config() : Configuration{};
      const std::size_t total = pool_size + neighbor_count;

      // Generation consumes the RNG stream — same draws, same order as the
      // fused loop — and decides eligibility per candidate against the
      // immutable `proposed` set. Scoring runs on the pool in blocks of
      // kBatchLanes slots: the eligible candidates of a block go to one
      // predict_batch call (const, pure, bit-identical to predict) and
      // write their indexed slots; the reduce walks ascending indices with
      // a strict `>` — the same argmax the sequential loop computed, bit
      // for bit.
      std::vector<Configuration> candidates(total);
      std::vector<char> eligible(total, 0);
      std::vector<double> scores(total, -1.0);
      // xi shifts the incumbent to discourage pure exploitation (skopt).
      const double margin = options_.xi * std::abs(incumbent);

      const auto generate = [&](std::size_t i) {
        if (i < pool_size) {
          candidates[i] = draw(rng);
        } else {
          Configuration neighbor = anchor;
          const std::size_t moves = 1 + rng.next_below(2);
          for (std::size_t m = 0; m < moves; ++m) {
            const std::size_t g = static_cast<std::size_t>(rng.next_below(neighbor.size()));
            neighbor[g] += static_cast<int>(rng.uniform_int(-2, 2));
          }
          candidates[i] = space.clamp(std::move(neighbor));
        }
        const bool blocked_dup = proposed.contains(space.encode(candidates[i]));
        const bool blocked_constraint =
            options_.constraint_aware && !space.is_executable(candidates[i]);
        eligible[i] = static_cast<char>(!blocked_dup && !blocked_constraint);
      };
      constexpr std::size_t kLanes = GpRegressor::kBatchLanes;
      const auto score_block = [&](std::size_t block) {
        std::array<std::size_t, kLanes> slots{};
        std::array<GpPrediction, kLanes> predictions{};
        std::vector<std::vector<double>> xs;
        xs.reserve(kLanes);
        for (std::size_t i = block * kLanes; i < std::min(total, (block + 1) * kLanes); ++i) {
          if (eligible[i] == 0) continue;
          slots[xs.size()] = i;
          xs.push_back(space.normalize(candidates[i]));
        }
        if (xs.empty()) return;
        gp.predict_batch(xs, std::span<GpPrediction>(predictions.data(), xs.size()));
        for (std::size_t j = 0; j < xs.size(); ++j) {
          scores[slots[j]] = expected_improvement(predictions[j].mean, predictions[j].variance,
                                                  incumbent - margin);
        }
      };
      for (std::size_t i = 0; i < total; ++i) generate(i);
      repro::parallel_for(0, (total + kLanes - 1) / kLanes, score_block, 2);

      double best_ei = -1.0;
      const Configuration* chosen = nullptr;
      for (std::size_t i = 0; i < total; ++i) {
        if (eligible[i] != 0 && scores[i] > best_ei) {
          best_ei = scores[i];
          chosen = &candidates[i];
        }
      }
      if (chosen == nullptr) {
        observe(draw(rng));
      } else {
        observe(*chosen);
      }
    }
  } catch (const BudgetExhausted&) {
    // normal termination
  }
  return result_from(evaluator);
}

}  // namespace repro::tuner
