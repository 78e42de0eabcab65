// BO GP and BO TPE generate acquisition candidates in RNG order on the
// proposing thread, then score them with parallel_for into indexed slots and
// take the ascending-index strict-`>` argmax. Called from the test thread the
// scoring splits across the global pool; inside a pool task the nested
// parallel_for scores inline. Both schedules must pick the same candidates.
// (On a single-worker pool both runs score inline.)

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>

#include "common/thread_pool.hpp"
#include "tests/tuner/test_objectives.hpp"
#include "tuner/gp/bo_gp.hpp"
#include "tuner/tpe/bo_tpe.hpp"

namespace repro::tuner {
namespace {

struct Outcome {
  TuneResult result;
  std::size_t calls = 0;
  std::uint64_t next_draw = 0;
};

Outcome run(SearchAlgorithm& algorithm, std::uint64_t seed) {
  const ParamSpace space = paper_search_space();
  Outcome out;
  Evaluator evaluator(space, testing::bowl_objective(&out.calls), 45);
  repro::Rng rng(seed);
  out.result = algorithm.minimize(space, evaluator, rng);
  out.next_draw = rng();
  return out;
}

// Runs each seed once from the test thread (pooled scoring) and once inside a
// pool task (inline scoring) and expects the two runs to agree.
void expect_pooled_matches_inline(
    const std::function<std::unique_ptr<SearchAlgorithm>()>& make) {
  for (std::uint64_t seed : {3u, 11u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Outcome pooled = run(*make(), seed);
    auto task = ThreadPool::global().submit([&] { return run(*make(), seed); });
    const Outcome nested = task.get();

    EXPECT_EQ(pooled.calls, nested.calls);
    EXPECT_EQ(pooled.result.evaluations_used, nested.result.evaluations_used);
    EXPECT_EQ(pooled.result.best_config, nested.result.best_config);
    EXPECT_EQ(pooled.result.best_value, nested.result.best_value);
    EXPECT_EQ(pooled.next_draw, nested.next_draw);
  }
}

TEST(SmboScoring, BoGpPooledAndInlineScoringPickTheSameCandidates) {
  expect_pooled_matches_inline([] { return std::make_unique<BoGp>(); });
}

TEST(SmboScoring, BoGpRaggedBlocksWithDuplicatesPickTheSameCandidates) {
  // BO GP scores in blocks of GpRegressor::kBatchLanes. A 61-candidate pool
  // plus 32 incumbent neighbours gives 93 candidates: the last block is
  // ragged, and the neighbour blocks hold repeated configurations and
  // already-proposed (ineligible) ones that the block skips.
  BoGpOptions gp;
  gp.acquisition_pool = 61;
  gp.acquisition_budget = 0;
  static_assert(GpRegressor::kBatchLanes == 8);
  expect_pooled_matches_inline([gp] { return std::make_unique<BoGp>(gp); });
}

TEST(SmboScoring, BoTpePooledAndInlineScoringPickTheSameCandidates) {
  BoTpeOptions tpe;
  tpe.ei_candidates = 128;  // two grain-64 chunks, so the pooled run splits
  expect_pooled_matches_inline([tpe] { return std::make_unique<BoTpe>(tpe); });
}

}  // namespace
}  // namespace repro::tuner
