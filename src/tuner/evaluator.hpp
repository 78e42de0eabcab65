#pragma once
// Budget-enforcing, caching evaluation broker between search algorithms and
// the objective.
//
// Paper protocol (Section VI-A): every configuration is measured once
// during search. Repeated proposals of the same configuration therefore
// return the cached measurement without consuming budget (the behaviour of
// Kernel Tuner's cache file, which the paper's GA baseline relies on).
// The budget counts *measurements*; when it is exhausted further calls
// throw BudgetExhausted, which algorithms use as their stop signal.
//
// Fault tolerance: the objective may report anomalies through
// Evaluation::status (see tuner/objective.hpp). Transient failures are
// retried with bounded exponential backoff; every retry is a fresh
// measurement and consumes one unit of budget exactly like the paper's
// single-measurement protocol. Only deterministic outcomes (ok / invalid)
// enter the cache, so a configuration lost to a flaky measurement can be
// proposed — and measured — again. Per-status tallies are exposed for the
// study reports.

#include <cassert>
#include <cstddef>
#include <stdexcept>
#include <unordered_map>

#include "tuner/objective.hpp"
#include "tuner/search_space.hpp"

namespace repro::tuner {

struct BudgetExhausted : std::runtime_error {
  BudgetExhausted() : std::runtime_error("evaluation budget exhausted") {}
};

/// Deterministic bounded exponential backoff for transient failures.
/// Defaults keep today's behaviour: no retries.
struct RetryPolicy {
  std::size_t max_retries = 0;        ///< extra attempts after a transient failure
  double backoff_initial_us = 100.0;  ///< simulated wait before the first retry
  double backoff_multiplier = 2.0;
  double backoff_max_us = 10000.0;    ///< cap on a single backoff wait
};

/// Per-status measurement tallies plus retry accounting; summed per study
/// cell for the failure report.
struct FailureCounters {
  std::size_t ok = 0;
  std::size_t invalid = 0;
  std::size_t transient = 0;
  std::size_t timeout = 0;
  std::size_t crashed = 0;
  std::size_t retries = 0;          ///< retry attempts issued
  std::size_t retry_successes = 0;  ///< retry chains that ended in ok/invalid
  double backoff_us = 0.0;          ///< total simulated backoff wait

  /// Anomalies only (excludes deterministic invalid configurations).
  [[nodiscard]] std::size_t faults() const noexcept {
    return transient + timeout + crashed;
  }
  /// True when the fault layer actually intervened (anomalies or retries);
  /// plain ok/invalid tallies do not count, so fault-free runs serialize
  /// byte-identically to the pre-fault format.
  [[nodiscard]] bool any() const noexcept {
    return faults() + retries > 0 || backoff_us > 0.0;
  }

  FailureCounters& operator+=(const FailureCounters& other) noexcept;
  void count(EvalStatus status) noexcept;
};

class Evaluator {
 public:
  Evaluator(const ParamSpace& space, Objective objective, std::size_t budget);

  /// Measure (or return the cached measurement of) a configuration.
  /// Throws BudgetExhausted when a fresh measurement would exceed budget;
  /// throws std::invalid_argument for configurations outside the parameter
  /// ranges (algorithms must clamp first). Transient failures are retried
  /// per the retry policy while budget remains; the final attempt's
  /// evaluation is returned either way.
  Evaluation evaluate(const Configuration& config);

  /// Retry behaviour for transient failures (default: no retries).
  void set_retry_policy(const RetryPolicy& policy) noexcept { retry_ = policy; }
  [[nodiscard]] const RetryPolicy& retry_policy() const noexcept { return retry_; }

  /// Measurement tallies since construction (cached hits are not counted).
  [[nodiscard]] const FailureCounters& counters() const noexcept { return counters_; }

  [[nodiscard]] std::size_t budget() const noexcept { return budget_; }
  [[nodiscard]] std::size_t used() const noexcept { return used_; }
  /// Saturates at 0 — `used_` can never legitimately exceed `budget_`, but
  /// callers must not see a wrapped size_t if that invariant ever breaks.
  [[nodiscard]] std::size_t remaining() const noexcept {
    assert(used_ <= budget_);
    return used_ >= budget_ ? 0 : budget_ - used_;
  }
  [[nodiscard]] bool exhausted() const noexcept { return used_ >= budget_; }

  /// Best *valid* measurement observed so far.
  [[nodiscard]] bool has_best() const noexcept { return has_best_; }
  [[nodiscard]] const Configuration& best_config() const noexcept { return best_config_; }
  [[nodiscard]] double best_value() const noexcept { return best_value_; }

  [[nodiscard]] const ParamSpace& space() const noexcept { return space_; }

 private:
  /// One budget-charged call of the objective with status normalization.
  Evaluation measure_once(const Configuration& config);

  const ParamSpace& space_;
  Objective objective_;
  std::size_t budget_;
  std::size_t used_ = 0;
  RetryPolicy retry_;
  FailureCounters counters_;
  /// Deterministic outcomes by encoded configuration. Only a charged
  /// measurement inserts, so the cache never outgrows the budget.
  std::unordered_map<std::uint64_t, Evaluation> cache_;
  Configuration best_config_;
  double best_value_ = 0.0;
  bool has_best_ = false;
};

}  // namespace repro::tuner
