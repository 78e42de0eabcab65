#include "tuner/evaluator.hpp"

#include <algorithm>

namespace repro::tuner {

FailureCounters& FailureCounters::operator+=(const FailureCounters& other) noexcept {
  ok += other.ok;
  invalid += other.invalid;
  transient += other.transient;
  timeout += other.timeout;
  crashed += other.crashed;
  retries += other.retries;
  retry_successes += other.retry_successes;
  backoff_us += other.backoff_us;
  return *this;
}

void FailureCounters::count(EvalStatus status) noexcept {
  switch (status) {
    case EvalStatus::kOk: ++ok; break;
    case EvalStatus::kInvalid: ++invalid; break;
    case EvalStatus::kTransient: ++transient; break;
    case EvalStatus::kTimeout: ++timeout; break;
    case EvalStatus::kCrashed: ++crashed; break;
  }
}

Evaluator::Evaluator(const ParamSpace& space, Objective objective, std::size_t budget)
    : space_(space),
      objective_(std::move(objective)),
      budget_(budget) {}

Evaluation Evaluator::measure_once(const Configuration& config) {
  ++used_;
  assert(used_ <= budget_);
  Evaluation result = objective_(config);
  // Normalize the status against `valid` so objectives predating the fault
  // model keep their semantics: valid => ok, plain invalid stays invalid.
  if (result.valid) {
    result.status = EvalStatus::kOk;
  } else if (result.status == EvalStatus::kOk) {
    result.status = EvalStatus::kInvalid;
  }
  counters_.count(result.status);
  return result;
}

Evaluation Evaluator::evaluate(const Configuration& config) {
  if (!space_.in_range(config)) {
    throw std::invalid_argument("Evaluator: configuration out of range");
  }
  const std::uint64_t key = space_.encode(config);
  if (const auto it = cache_.find(key); it != cache_.end()) {
    return it->second;
  }
  if (used_ >= budget_) throw BudgetExhausted{};

  Evaluation result = measure_once(config);
  if (result.status == EvalStatus::kTransient && retry_.max_retries > 0) {
    double backoff = retry_.backoff_initial_us;
    std::size_t attempts = 0;
    while (result.status == EvalStatus::kTransient &&
           attempts < retry_.max_retries && used_ < budget_) {
      ++attempts;
      ++counters_.retries;
      counters_.backoff_us += backoff;
      backoff = std::min(backoff * retry_.backoff_multiplier, retry_.backoff_max_us);
      result = measure_once(config);
    }
    if (attempts > 0 && (result.status == EvalStatus::kOk ||
                         result.status == EvalStatus::kInvalid)) {
      ++counters_.retry_successes;
    }
  }

  // Only deterministic outcomes are cacheable; a configuration lost to a
  // flaky measurement may be proposed (and charged) again later.
  if (result.status == EvalStatus::kOk || result.status == EvalStatus::kInvalid) {
    cache_.emplace(key, result);
  }
  if (result.valid && (!has_best_ || result.value < best_value_)) {
    has_best_ = true;
    best_value_ = result.value;
    best_config_ = config;
  }
  return result;
}

}  // namespace repro::tuner
