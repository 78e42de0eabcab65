#include "tuner/tpe/bo_tpe.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <unordered_set>

#include "common/simd.hpp"
#include "common/thread_pool.hpp"

namespace repro::tuner {

ParzenCategorical::ParzenCategorical(int lo, int hi, double prior_weight) : lo_(lo) {
  if (hi < lo) throw std::invalid_argument("ParzenCategorical: empty range");
  weights_.assign(static_cast<std::size_t>(hi - lo + 1), prior_weight);
  total_ = prior_weight * static_cast<double>(weights_.size());
}

void ParzenCategorical::add(int value, double weight) {
  const auto index = static_cast<std::size_t>(value - lo_);
  if (index >= weights_.size()) throw std::out_of_range("ParzenCategorical::add");
  weights_[index] += weight;
  total_ += weight;
}

double ParzenCategorical::probability(int value) const {
  const auto index = static_cast<std::size_t>(value - lo_);
  if (index >= weights_.size()) return 0.0;
  return weights_[index] / total_;
}

int ParzenCategorical::sample(repro::Rng& rng) const {
  return lo_ + static_cast<int>(rng.weighted_index(weights_));
}

TuneResult BoTpe::minimize(const ParamSpace& space, Evaluator& evaluator,
                           repro::Rng& rng) {
  struct Observation {
    Configuration config;
    double value = 0.0;
    bool valid = false;
  };
  std::vector<Observation> history;
  std::unordered_set<std::uint64_t> proposed;

  // Warm start: prior tenant rows join the good/bad split at zero budget
  // cost. They stay out of `proposed` (a promising prior config may be
  // re-measured in-session) and out of the evaluator (the reported best is
  // in-session only).
  std::size_t prior_count = 0;
  if (warm_start::has_rows(options_.prior)) {
    for (const PriorObservation& row :
         warm_start::compatible_rows(*options_.prior, space)) {
      history.push_back({row.config, row.value, row.valid});
      ++prior_count;
    }
  }

  auto observe = [&](const Configuration& config) {
    proposed.insert(space.encode(config));
    const Evaluation eval = evaluator.evaluate(config);
    history.push_back({config, eval.value, eval.valid});
  };

  const auto draw = [&](repro::Rng& r) {
    return options_.constraint_aware ? space.sample_executable(r) : space.sample(r);
  };

  try {
    // Each prior row displaces one of hyperopt's random startup trials.
    const std::size_t startup_needed =
        options_.n_startup > prior_count ? options_.n_startup - prior_count : 0;
    const std::size_t startup = std::min(startup_needed, evaluator.budget());
    for (std::size_t i = 0; i < startup; ++i) observe(draw(rng));

    for (;;) {
      // Split history: "good" = best gamma-fraction of *valid* trials
      // (capped), everything else (including failures) is "bad".
      std::vector<std::size_t> valid_indices;
      for (std::size_t i = 0; i < history.size(); ++i) {
        if (history[i].valid) valid_indices.push_back(i);
      }
      if (valid_indices.size() < 2) {
        observe(draw(rng));
        continue;
      }
      std::sort(valid_indices.begin(), valid_indices.end(),
                [&](std::size_t a, std::size_t b) {
                  return history[a].value < history[b].value;
                });
      const std::size_t n_good = std::min(
          options_.good_cap,
          std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(
                                       options_.gamma *
                                       static_cast<double>(valid_indices.size())))));

      std::unordered_set<std::size_t> good_set(valid_indices.begin(),
                                               valid_indices.begin() + n_good);

      // Per-dimension Parzen estimators.
      std::vector<ParzenCategorical> good_model;
      std::vector<ParzenCategorical> bad_model;
      good_model.reserve(space.num_params());
      bad_model.reserve(space.num_params());
      for (const ParamRange& param : space.params()) {
        good_model.emplace_back(param.lo, param.hi, options_.prior_weight);
        bad_model.emplace_back(param.lo, param.hi, options_.prior_weight);
      }
      for (std::size_t i = 0; i < history.size(); ++i) {
        auto& target = good_set.contains(i) ? good_model : bad_model;
        for (std::size_t d = 0; d < space.num_params(); ++d) {
          target[d].add(history[i].config[d]);
        }
      }

      // Sample candidates from l(x), rank by l(x)/g(x). Sampling stays
      // sequential (it consumes the RNG stream); scoring is pure per
      // candidate, so it runs on the pool into indexed slots, and the
      // argmax reduces in ascending candidate order with a strict `>` —
      // the same winner the fused sequential loop picked. The
      // per-dimension log-ratio terms go through the shared sequential sum
      // kernel (same left-to-right accumulation the fused loop used).
      const std::size_t count = options_.ei_candidates;
      std::vector<Configuration> batch(count);
      std::vector<char> eligible(count, 0);
      std::vector<double> scores(count, 0.0);
      const auto generate = [&](std::size_t c) {
        Configuration candidate(space.num_params());
        for (std::size_t d = 0; d < space.num_params(); ++d) {
          candidate[d] = good_model[d].sample(rng);
        }
        const bool dup = proposed.contains(space.encode(candidate));
        const bool infeasible =
            options_.constraint_aware && !space.is_executable(candidate);
        eligible[c] = static_cast<char>(!dup && !infeasible);
        batch[c] = std::move(candidate);
      };
      const auto score = [&](std::size_t c) {
        if (eligible[c] == 0) return;
        std::vector<double> terms(space.num_params());
        for (std::size_t d = 0; d < space.num_params(); ++d) {
          terms[d] = std::log(good_model[d].probability(batch[c][d])) -
                     std::log(bad_model[d].probability(batch[c][d]));
        }
        scores[c] = simd::seq::sum(terms.data(), terms.size());
      };
      for (std::size_t c = 0; c < count; ++c) generate(c);
      repro::parallel_for(0, count, score, 64);
      double best_ratio = -std::numeric_limits<double>::infinity();
      Configuration best_candidate;
      for (std::size_t c = 0; c < count; ++c) {
        if (eligible[c] == 0) continue;
        if (scores[c] > best_ratio) {
          best_ratio = scores[c];
          best_candidate = std::move(batch[c]);
        }
      }
      if (best_candidate.empty()) {
        observe(draw(rng));
      } else {
        observe(best_candidate);
      }
    }
  } catch (const BudgetExhausted&) {
    // normal termination
  }
  return result_from(evaluator);
}

}  // namespace repro::tuner
