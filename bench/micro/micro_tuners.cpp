// Microbenchmarks: wall-clock cost of one search *algorithm run* at a given
// sample budget, on a synthetic objective so the measurement isolates the
// algorithm itself. The paper deliberately excludes algorithm runtime from
// its comparison (Section V: implementation-dependent); this bench supplies
// the numbers for readers who want them anyway — BO GP's cubic-in-samples
// model cost versus the near-free RS/GA bookkeeping.

#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "tuner/registry.hpp"

namespace {

using namespace repro;

tuner::Objective synthetic_objective() {
  return [](const tuner::Configuration& config) {
    double value = 1.0;
    for (int v : config) value += static_cast<double>((v - 4) * (v - 4));
    return tuner::Evaluation{value, true};
  };
}

void BM_AlgorithmRun(benchmark::State& state, const char* id) {
  const tuner::ParamSpace space = tuner::paper_search_space();
  const auto budget = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 0;
  for (auto _ : state) {
    tuner::Evaluator evaluator(space, synthetic_objective(), budget);
    Rng rng(seed_combine(42, seed++));
    const auto algorithm = tuner::make_algorithm(id);
    benchmark::DoNotOptimize(algorithm->minimize(space, evaluator, rng));
  }
  state.SetLabel(std::string(id) + " @ " + std::to_string(budget) + " samples");
}

BENCHMARK_CAPTURE(BM_AlgorithmRun, rs, "rs")->Arg(100)->Arg(400);
BENCHMARK_CAPTURE(BM_AlgorithmRun, rf, "rf")->Arg(100)->Arg(400);
BENCHMARK_CAPTURE(BM_AlgorithmRun, ga, "ga")->Arg(100)->Arg(400);
BENCHMARK_CAPTURE(BM_AlgorithmRun, bogp, "bogp")->Arg(100)->Arg(400);
BENCHMARK_CAPTURE(BM_AlgorithmRun, botpe, "botpe")->Arg(100)->Arg(400);
BENCHMARK_CAPTURE(BM_AlgorithmRun, sa, "sa")->Arg(100);
BENCHMARK_CAPTURE(BM_AlgorithmRun, pso, "pso")->Arg(100);
BENCHMARK_CAPTURE(BM_AlgorithmRun, bandit, "bandit")->Arg(100);

}  // namespace

BENCHMARK_MAIN();
