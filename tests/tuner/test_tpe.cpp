// BO TPE: Parzen estimator behaviour and the tuner's search dynamics.

#include <gtest/gtest.h>

#include <array>

#include "tests/tuner/test_objectives.hpp"
#include "tuner/tpe/bo_tpe.hpp"

namespace repro::tuner {
namespace {

TEST(ParzenCategorical, RejectsEmptyRange) {
  EXPECT_THROW(ParzenCategorical(3, 2, 1.0), std::invalid_argument);
}

TEST(ParzenCategorical, PriorIsUniform) {
  const ParzenCategorical parzen(1, 4, 1.0);
  for (int v = 1; v <= 4; ++v) EXPECT_DOUBLE_EQ(parzen.probability(v), 0.25);
  EXPECT_DOUBLE_EQ(parzen.probability(0), 0.0);
  EXPECT_DOUBLE_EQ(parzen.probability(5), 0.0);
}

TEST(ParzenCategorical, ObservationsShiftMass) {
  ParzenCategorical parzen(1, 4, 1.0);
  parzen.add(2);
  parzen.add(2);
  parzen.add(3);
  // weights: {1, 3, 2, 1} / 7
  EXPECT_DOUBLE_EQ(parzen.probability(2), 3.0 / 7.0);
  EXPECT_DOUBLE_EQ(parzen.probability(1), 1.0 / 7.0);
}

TEST(ParzenCategorical, ProbabilitiesSumToOne) {
  ParzenCategorical parzen(0, 9, 0.5);
  repro::Rng rng(1);
  for (int i = 0; i < 50; ++i) parzen.add(static_cast<int>(rng.uniform_int(0, 9)));
  double total = 0.0;
  for (int v = 0; v <= 9; ++v) total += parzen.probability(v);
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(ParzenCategorical, SamplingFollowsWeights) {
  ParzenCategorical parzen(0, 2, 0.01);
  for (int i = 0; i < 98; ++i) parzen.add(1);
  repro::Rng rng(2);
  std::array<int, 3> counts{};
  for (int i = 0; i < 3000; ++i) counts[parzen.sample(rng)]++;
  EXPECT_GT(counts[1], 2800);
}

TEST(ParzenCategorical, AddRejectsOutOfRange) {
  ParzenCategorical parzen(1, 4, 1.0);
  EXPECT_THROW(parzen.add(5), std::out_of_range);
}

TEST(BoTpe, UsesExactBudget) {
  const ParamSpace space = paper_search_space();
  std::size_t calls = 0;
  Evaluator evaluator(space, testing::bowl_objective(&calls), 45);
  BoTpe tpe;
  repro::Rng rng(3);
  const TuneResult result = tpe.minimize(space, evaluator, rng);
  EXPECT_EQ(calls, 45u);
  EXPECT_TRUE(result.found_valid);
}

TEST(BoTpe, BeatsRandomBeyondStartup) {
  const ParamSpace space = paper_search_space();
  BoTpe tpe;
  double tpe_total = 0.0, random_total = 0.0;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    Evaluator evaluator(space, testing::bowl_objective(), 100);
    repro::Rng rng(seed);
    tpe_total += tpe.minimize(space, evaluator, rng).best_value;
    random_total += testing::random_baseline(space, 100, seed + 333);
  }
  EXPECT_LT(tpe_total, random_total);
}

TEST(BoTpe, StartupPhaseIsPureRandom) {
  // With budget <= n_startup, TPE degenerates to random search over the
  // unconstrained space.
  BoTpeOptions options;
  options.n_startup = 20;
  const ParamSpace space = paper_search_space();
  Evaluator evaluator(space, testing::bowl_objective(), 15);
  BoTpe tpe(options);
  repro::Rng rng(4);
  const TuneResult result = tpe.minimize(space, evaluator, rng);
  EXPECT_EQ(result.evaluations_used, 15u);
}

TEST(BoTpe, SurvivesInvalidRegions) {
  const ParamSpace space = paper_search_space();
  Evaluator evaluator(space, testing::gated_bowl_objective(space), 60);
  BoTpe tpe;
  repro::Rng rng(5);
  const TuneResult result = tpe.minimize(space, evaluator, rng);
  ASSERT_TRUE(result.found_valid);
  EXPECT_TRUE(space.is_executable(result.best_config));
}

TEST(BoTpe, HandlesAllInvalidObjective) {
  const ParamSpace space = paper_search_space();
  Evaluator evaluator(space, [](const Configuration&) { return Evaluation{}; }, 30);
  BoTpe tpe;
  repro::Rng rng(6);
  EXPECT_FALSE(tpe.minimize(space, evaluator, rng).found_valid);
}

TEST(BoTpe, DeterministicGivenSeed) {
  const ParamSpace space = paper_search_space();
  BoTpe tpe;
  TuneResult results[2];
  for (int run = 0; run < 2; ++run) {
    Evaluator evaluator(space, testing::bowl_objective(), 50);
    repro::Rng rng(88);
    results[run] = tpe.minimize(space, evaluator, rng);
  }
  EXPECT_EQ(results[0].best_config, results[1].best_config);
}

TEST(BoTpe, ConstraintAwareModeNeverProposesInvalid) {
  const ParamSpace space = paper_search_space();
  bool all_executable = true;
  Evaluator evaluator(space, [&](const Configuration& config) {
    all_executable &= space.is_executable(config);
    double value = 1.0;
    for (int v : config) value += (v - 4) * (v - 4);
    return Evaluation{value, true};
  }, 45);
  BoTpeOptions options;
  options.constraint_aware = true;
  BoTpe tpe(options);
  repro::Rng rng(22);
  (void)tpe.minimize(space, evaluator, rng);
  EXPECT_TRUE(all_executable);
}

}  // namespace
}  // namespace repro::tuner
