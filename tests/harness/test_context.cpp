// BenchmarkContext: optimum sweep, measurement path, dataset collection.
// Uses small custom benchmark sizes so context construction stays cheap.

#include <gtest/gtest.h>

#include <cmath>

#include "harness/context.hpp"

namespace repro::harness {
namespace {

std::shared_ptr<const imagecl::Benchmark> small_add() {
  static auto benchmark = imagecl::make_benchmark("add", 512, 512);
  return benchmark;
}

TEST(Context, ToKernelConfigMapsPaperOrder) {
  const simgpu::KernelConfig kernel = to_kernel_config({2, 3, 4, 5, 6, 7});
  EXPECT_EQ(kernel.coarsen_x, 2u);
  EXPECT_EQ(kernel.coarsen_y, 3u);
  EXPECT_EQ(kernel.coarsen_z, 4u);
  EXPECT_EQ(kernel.wg_x, 5u);
  EXPECT_EQ(kernel.wg_y, 6u);
  EXPECT_EQ(kernel.wg_z, 7u);
  EXPECT_THROW((void)to_kernel_config({1, 2, 3}), std::invalid_argument);
}

TEST(Context, OptimumIsLowerBoundOfSamples) {
  const BenchmarkContext context(small_add(), simgpu::titan_v(), 0, 42);
  EXPECT_GT(context.optimum_us(), 0.0);
  repro::Rng rng(1);
  for (int i = 0; i < 300; ++i) {
    const tuner::Configuration config = context.space().sample_executable(rng);
    const double time = context.true_time_us(config);
    ASSERT_FALSE(std::isnan(time));
    EXPECT_GE(time, context.optimum_us() - 1e-9);
  }
}

TEST(Context, InvalidConfigMeasuresNaN) {
  const BenchmarkContext context(small_add(), simgpu::titan_v(), 0, 42);
  repro::Rng rng(2);
  EXPECT_TRUE(std::isnan(context.true_time_us({1, 1, 1, 8, 8, 8})));
  EXPECT_TRUE(std::isnan(context.measure_us({1, 1, 1, 8, 8, 8}, rng)));
}

TEST(Context, MeasurementNoiseIsMultiplicativeAndSmall) {
  const BenchmarkContext context(small_add(), simgpu::titan_v(), 0, 42);
  const tuner::Configuration config = {1, 1, 1, 8, 4, 1};
  const double truth = context.true_time_us(config);
  repro::Rng rng(3);
  double sum = 0.0;
  for (int i = 0; i < 500; ++i) {
    const double measured = context.measure_us(config, rng);
    EXPECT_GT(measured, truth * 0.85);
    EXPECT_LT(measured, truth * 1.35);
    sum += measured;
  }
  EXPECT_NEAR(sum / 500.0, truth, truth * 0.02);
}

TEST(Context, RepeatedMeasurementReducesVariance) {
  const BenchmarkContext context(small_add(), simgpu::titan_v(), 0, 42);
  const tuner::Configuration config = {2, 1, 1, 8, 4, 1};
  const double truth = context.true_time_us(config);
  repro::Rng rng(4);
  const double ten_fold = context.measure_repeated_us(config, rng, 10);
  EXPECT_NEAR(ten_fold, truth, truth * 0.05);
}

TEST(Context, ObjectiveClosureReportsValidity) {
  const BenchmarkContext context(small_add(), simgpu::titan_v(), 0, 42);
  repro::Rng rng(5);
  const tuner::Objective objective = context.make_objective(rng);
  const tuner::Evaluation good = objective({1, 1, 1, 8, 4, 1});
  EXPECT_TRUE(good.valid);
  EXPECT_GT(good.value, 0.0);
  const tuner::Evaluation bad = objective({1, 1, 1, 8, 8, 8});
  EXPECT_FALSE(bad.valid);
}

TEST(Context, DatasetCollectedToRequestedSize) {
  const BenchmarkContext context(small_add(), simgpu::titan_v(), 250, 42);
  EXPECT_EQ(context.dataset().size(), 250u);
  for (std::size_t i = 0; i < 250; ++i) {
    EXPECT_TRUE(context.dataset().entry(i).valid);
    EXPECT_TRUE(context.space().is_executable(context.dataset().entry(i).config));
  }
}

TEST(Context, DatasetIsDeterministicInMasterSeed) {
  const BenchmarkContext a(small_add(), simgpu::titan_v(), 50, 7);
  const BenchmarkContext b(small_add(), simgpu::titan_v(), 50, 7);
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(a.dataset().entry(i).config, b.dataset().entry(i).config);
    EXPECT_DOUBLE_EQ(a.dataset().entry(i).value, b.dataset().entry(i).value);
  }
}

TEST(Context, ArchitecturesProduceDifferentOptima) {
  const BenchmarkContext volta(small_add(), simgpu::titan_v(), 0, 42);
  const BenchmarkContext maxwell(small_add(), simgpu::gtx980(), 0, 42);
  EXPECT_NE(volta.optimum_us(), maxwell.optimum_us());
}

TEST(Context, DisabledInjectorReproducesMeasureUsExactly) {
  const BenchmarkContext context(small_add(), simgpu::titan_v(), 0, 42);
  const tuner::Configuration config = context.dataset().size() > 0
                                          ? context.dataset().entry(0).config
                                          : tuner::Configuration{3, 3, 0, 0, 0, 0};
  simgpu::FaultInjector injector;  // disabled
  repro::Rng rng_a(5), rng_b(5);
  for (int i = 0; i < 20; ++i) {
    const double plain = context.measure_us(config, rng_a);
    const tuner::Evaluation eval = context.measure_eval(config, rng_b, injector);
    if (std::isnan(plain)) {
      EXPECT_FALSE(eval.valid);
      EXPECT_EQ(eval.status, tuner::EvalStatus::kInvalid);
    } else {
      EXPECT_DOUBLE_EQ(plain, eval.value);
      EXPECT_EQ(eval.status, tuner::EvalStatus::kOk);
    }
  }
  // Identical downstream RNG state: the disabled path made the same draws.
  EXPECT_EQ(rng_a(), rng_b());
}

TEST(Context, MeasureEvalClassifiesInjectedFaults) {
  const BenchmarkContext context(small_add(), simgpu::titan_v(), 0, 42);
  const tuner::Configuration config{3, 3, 0, 0, 0, 0};
  repro::Rng rng(6);

  simgpu::FaultModel transient_only;
  transient_only.enabled = true;
  transient_only.transient_probability = 1.0;
  simgpu::FaultInjector transient(transient_only, 1);
  EXPECT_EQ(context.measure_eval(config, rng, transient).status,
            tuner::EvalStatus::kTransient);

  simgpu::FaultModel timeout_only;
  timeout_only.enabled = true;
  timeout_only.timeout_probability = 1.0;
  timeout_only.timeout_wall_us = 5.0e5;
  simgpu::FaultInjector timeout(timeout_only, 1);
  const tuner::Evaluation hung = context.measure_eval(config, rng, timeout);
  EXPECT_EQ(hung.status, tuner::EvalStatus::kTimeout);
  // A hung kernel costs the full wall budget, reported as its elapsed time.
  EXPECT_DOUBLE_EQ(hung.value, 5.0e5);
  EXPECT_FALSE(hung.valid);

  simgpu::FaultModel reset_only;
  reset_only.enabled = true;
  reset_only.reset_probability = 1.0;
  reset_only.reset_poison_count = 2;
  simgpu::FaultInjector reset(reset_only, 1);
  EXPECT_EQ(context.measure_eval(config, rng, reset).status,
            tuner::EvalStatus::kCrashed);  // the reset itself
  EXPECT_EQ(context.measure_eval(config, rng, reset).status,
            tuner::EvalStatus::kCrashed);  // poisoned follow-up
}

TEST(Context, FaultAwareRepeatedMeasureDropsFaultedRepeats) {
  const BenchmarkContext context(small_add(), simgpu::titan_v(), 50, 42);
  const tuner::Configuration config = context.dataset().entry(0).config;
  repro::Rng rng_a(9), rng_b(9);

  // Disabled injector: exact match with the plain overload.
  simgpu::FaultInjector disabled;
  tuner::FailureCounters counters;
  const double plain = context.measure_repeated_us(config, rng_a, 10);
  const double faultless =
      context.measure_repeated_us(config, rng_b, 10, disabled, &counters);
  EXPECT_DOUBLE_EQ(plain, faultless);
  EXPECT_EQ(counters.faults(), 0u);

  // Certain faults: every repeat is lost, the mean is NaN, all tallied.
  simgpu::FaultModel always;
  always.enabled = true;
  always.transient_probability = 1.0;
  simgpu::FaultInjector lossy(always, 3);
  tuner::FailureCounters lost;
  repro::Rng rng_c(9);
  EXPECT_TRUE(std::isnan(
      context.measure_repeated_us(config, rng_c, 10, lossy, &lost)));
  EXPECT_EQ(lost.transient, 10u);
}

}  // namespace
}  // namespace repro::harness
