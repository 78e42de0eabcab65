// Evaluator: budget accounting, measurement caching, best tracking.

#include <gtest/gtest.h>

#include "tuner/evaluator.hpp"

namespace repro::tuner {
namespace {

ParamSpace tiny_space() { return ParamSpace({{"a", 0, 9}, {"b", 0, 9}}); }

TEST(Evaluator, ChargesBudgetPerFreshMeasurement) {
  const ParamSpace space = tiny_space();
  int calls = 0;
  Evaluator evaluator(space, [&](const Configuration&) {
    ++calls;
    return Evaluation{1.0, true};
  }, 3);
  (void)evaluator.evaluate({0, 0});
  (void)evaluator.evaluate({1, 0});
  EXPECT_EQ(evaluator.used(), 2u);
  EXPECT_EQ(evaluator.remaining(), 1u);
  EXPECT_EQ(calls, 2);
}

TEST(Evaluator, CachedRepeatsAreFree) {
  const ParamSpace space = tiny_space();
  int calls = 0;
  Evaluator evaluator(space, [&](const Configuration& c) {
    ++calls;
    return Evaluation{static_cast<double>(c[0]), true};
  }, 2);
  const Evaluation first = evaluator.evaluate({4, 0});
  const Evaluation again = evaluator.evaluate({4, 0});
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(evaluator.used(), 1u);
  EXPECT_DOUBLE_EQ(first.value, again.value);
}

TEST(Evaluator, ThrowsWhenExhausted) {
  const ParamSpace space = tiny_space();
  Evaluator evaluator(space, [](const Configuration&) {
    return Evaluation{1.0, true};
  }, 1);
  (void)evaluator.evaluate({0, 0});
  EXPECT_TRUE(evaluator.exhausted());
  EXPECT_THROW((void)evaluator.evaluate({1, 1}), BudgetExhausted);
  // Cached lookups still work after exhaustion.
  EXPECT_NO_THROW((void)evaluator.evaluate({0, 0}));
}

TEST(Evaluator, RejectsOutOfRangeConfigs) {
  const ParamSpace space = tiny_space();
  Evaluator evaluator(space, [](const Configuration&) {
    return Evaluation{1.0, true};
  }, 5);
  EXPECT_THROW((void)evaluator.evaluate({50, 0}), std::invalid_argument);
}

TEST(Evaluator, TracksBestValidOnly) {
  const ParamSpace space = tiny_space();
  Evaluator evaluator(space, [](const Configuration& c) {
    if (c[0] == 0) return Evaluation{0.001, false};  // invalid, best value
    return Evaluation{static_cast<double>(c[0]), true};
  }, 10);
  (void)evaluator.evaluate({0, 0});
  EXPECT_FALSE(evaluator.has_best());
  (void)evaluator.evaluate({5, 0});
  (void)evaluator.evaluate({3, 0});
  (void)evaluator.evaluate({7, 0});
  ASSERT_TRUE(evaluator.has_best());
  EXPECT_DOUBLE_EQ(evaluator.best_value(), 3.0);
  EXPECT_EQ(evaluator.best_config(), (Configuration{3, 0}));
}

TEST(Evaluator, RemainingSaturatesAtZero) {
  const ParamSpace space = tiny_space();
  Evaluator evaluator(space, [](const Configuration&) {
    return Evaluation{1.0, true};
  }, 2);
  EXPECT_EQ(evaluator.remaining(), 2u);
  (void)evaluator.evaluate({0, 0});
  (void)evaluator.evaluate({1, 0});
  EXPECT_EQ(evaluator.remaining(), 0u);
  EXPECT_TRUE(evaluator.exhausted());
  // Cached lookups after exhaustion must not move the counters.
  (void)evaluator.evaluate({0, 0});
  EXPECT_EQ(evaluator.remaining(), 0u);
  EXPECT_EQ(evaluator.used(), 2u);
}

TEST(Evaluator, StatusNormalizationForLegacyObjectives) {
  const ParamSpace space = tiny_space();
  // Objective that never sets status: valid => kOk, invalid => kInvalid.
  Evaluator evaluator(space, [](const Configuration& c) {
    return Evaluation{1.0, c[0] == 0};
  }, 4);
  EXPECT_EQ(evaluator.evaluate({0, 0}).status, EvalStatus::kOk);
  EXPECT_EQ(evaluator.evaluate({1, 0}).status, EvalStatus::kInvalid);
  EXPECT_EQ(evaluator.counters().ok, 1u);
  EXPECT_EQ(evaluator.counters().invalid, 1u);
  EXPECT_FALSE(evaluator.counters().any());
}

TEST(Evaluator, RetriesTransientAndChargesBudgetPerAttempt) {
  const ParamSpace space = tiny_space();
  int calls = 0;
  // First two attempts fail transiently, third succeeds.
  Evaluator evaluator(space, [&](const Configuration&) {
    ++calls;
    Evaluation eval;
    if (calls <= 2) {
      eval.status = EvalStatus::kTransient;
      return eval;
    }
    return Evaluation{42.0, true};
  }, 10);
  RetryPolicy policy;
  policy.max_retries = 3;
  policy.backoff_initial_us = 100.0;
  policy.backoff_multiplier = 2.0;
  policy.backoff_max_us = 150.0;
  evaluator.set_retry_policy(policy);

  const Evaluation result = evaluator.evaluate({5, 5});
  EXPECT_EQ(result.status, EvalStatus::kOk);
  EXPECT_DOUBLE_EQ(result.value, 42.0);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(evaluator.used(), 3u);  // every retry consumed budget
  EXPECT_EQ(evaluator.counters().transient, 2u);
  EXPECT_EQ(evaluator.counters().retries, 2u);
  EXPECT_EQ(evaluator.counters().retry_successes, 1u);
  // 100 then min(200, 150) = 150 of simulated backoff.
  EXPECT_DOUBLE_EQ(evaluator.counters().backoff_us, 250.0);
  EXPECT_TRUE(evaluator.counters().any());
}

TEST(Evaluator, RetryStopsAtBudgetBoundary) {
  const ParamSpace space = tiny_space();
  int calls = 0;
  Evaluator evaluator(space, [&](const Configuration&) {
    ++calls;
    Evaluation eval;
    eval.status = EvalStatus::kTransient;
    return eval;
  }, 2);
  RetryPolicy policy;
  policy.max_retries = 10;
  evaluator.set_retry_policy(policy);

  const Evaluation result = evaluator.evaluate({1, 1});
  EXPECT_EQ(result.status, EvalStatus::kTransient);
  EXPECT_EQ(calls, 2);  // initial + 1 retry, then budget gone
  EXPECT_TRUE(evaluator.exhausted());
  EXPECT_EQ(evaluator.counters().retry_successes, 0u);
}

TEST(Evaluator, TransientResultsAreNotCached) {
  const ParamSpace space = tiny_space();
  int calls = 0;
  Evaluator evaluator(space, [&](const Configuration&) {
    ++calls;
    Evaluation eval;
    if (calls == 1) {
      eval.status = EvalStatus::kTransient;
      return eval;
    }
    return Evaluation{7.0, true};
  }, 10);
  // No retry policy: the transient result is returned as-is but not cached,
  // so re-proposing the configuration measures it again.
  EXPECT_EQ(evaluator.evaluate({2, 2}).status, EvalStatus::kTransient);
  const Evaluation second = evaluator.evaluate({2, 2});
  EXPECT_EQ(second.status, EvalStatus::kOk);
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(evaluator.used(), 2u);
  // Now cached: no further charge.
  (void)evaluator.evaluate({2, 2});
  EXPECT_EQ(evaluator.used(), 2u);
}

TEST(Evaluator, TimeoutAndCrashCountersAndBestExcludesFaults) {
  const ParamSpace space = tiny_space();
  Evaluator evaluator(space, [](const Configuration& c) {
    Evaluation eval;
    if (c[0] == 0) {
      eval.value = 1e6;  // elapsed wall budget of the hung kernel
      eval.status = EvalStatus::kTimeout;
      return eval;
    }
    if (c[0] == 1) {
      eval.status = EvalStatus::kCrashed;
      return eval;
    }
    return Evaluation{static_cast<double>(c[0]), true};
  }, 10);
  EXPECT_EQ(evaluator.evaluate({0, 0}).status, EvalStatus::kTimeout);
  EXPECT_EQ(evaluator.evaluate({1, 0}).status, EvalStatus::kCrashed);
  (void)evaluator.evaluate({5, 0});
  EXPECT_EQ(evaluator.counters().timeout, 1u);
  EXPECT_EQ(evaluator.counters().crashed, 1u);
  EXPECT_EQ(evaluator.counters().faults(), 2u);
  ASSERT_TRUE(evaluator.has_best());
  EXPECT_DOUBLE_EQ(evaluator.best_value(), 5.0);  // timeout value is not "best"
}

TEST(FailureCountersTest, AccumulateAndAny) {
  FailureCounters a, b;
  EXPECT_FALSE(a.any());
  a.ok = 5;
  a.invalid = 3;
  EXPECT_FALSE(a.any());  // plain outcomes are not anomalies
  b.transient = 2;
  b.retries = 1;
  b.backoff_us = 100.0;
  EXPECT_TRUE(b.any());
  a += b;
  EXPECT_EQ(a.ok, 5u);
  EXPECT_EQ(a.transient, 2u);
  EXPECT_EQ(a.retries, 1u);
  EXPECT_DOUBLE_EQ(a.backoff_us, 100.0);
  EXPECT_TRUE(a.any());
}

TEST(EvalStatusNames, AllDistinct) {
  EXPECT_STREQ(to_string(EvalStatus::kOk), "ok");
  EXPECT_STREQ(to_string(EvalStatus::kInvalid), "invalid");
  EXPECT_STREQ(to_string(EvalStatus::kTransient), "transient");
  EXPECT_STREQ(to_string(EvalStatus::kTimeout), "timeout");
  EXPECT_STREQ(to_string(EvalStatus::kCrashed), "crashed");
}

}  // namespace
}  // namespace repro::tuner
