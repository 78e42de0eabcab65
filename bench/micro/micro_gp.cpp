// Microbenchmarks: Gaussian process fit/predict cost as a function of the
// training-set size — the dominant cost of BO GP experiments.

#include <benchmark/benchmark.h>

#include <chrono>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "tuner/gp/gp_regressor.hpp"

namespace {

using repro::tuner::GpHyperparams;
using repro::tuner::GpPrediction;
using repro::tuner::GpRegressor;

struct TrainingSet {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
};

TrainingSet make_training_set(std::size_t n) {
  TrainingSet set;
  repro::Rng rng(42);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> point(6);
    for (auto& v : point) v = rng.uniform();
    double target = 0.0;
    for (double v : point) target += (v - 0.4) * (v - 0.4);
    set.x.push_back(std::move(point));
    set.y.push_back(target + 0.01 * rng.normal());
  }
  return set;
}

void BM_GpFit(benchmark::State& state) {
  const auto set = make_training_set(static_cast<std::size_t>(state.range(0)));
  GpRegressor gp(GpHyperparams{0.3, 1.0, 1e-2});
  // Reference path: with the incremental caches on, refitting an unchanged
  // training set is (deliberately) free, which is not what this measures.
  gp.set_incremental(false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gp.fit(set.x, set.y));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_GpFit)->Arg(25)->Arg(50)->Arg(100)->Arg(200)->Complexity();

// The BO-GP hot path: refit after every appended observation, as minimize()
// does from 10 points up to n. Second argument toggles the incremental
// (append-row Cholesky + distance cache) machinery; both variants produce
// bit-identical factors, so the ratio is pure refit cost — the perf gate
// compares them (BENCH_micro.json).
void BM_GpSequentialRefit(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const bool incremental = state.range(1) != 0;
  const auto set = make_training_set(n);
  const std::span<const std::vector<double>> xs(set.x);
  const std::span<const double> ys(set.y);
  for (auto _ : state) {
    GpRegressor gp(GpHyperparams{0.3, 1.0, 1e-2});
    gp.set_incremental(incremental);
    for (std::size_t m = 10; m <= n; ++m) {
      benchmark::DoNotOptimize(gp.fit(xs.first(m), ys.first(m)));
    }
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_GpSequentialRefit)
    ->Args({100, 0})
    ->Args({100, 1})
    ->Args({400, 0})
    ->Args({400, 1})
    ->Unit(benchmark::kMillisecond);

void BM_GpPredict(benchmark::State& state) {
  const auto set = make_training_set(static_cast<std::size_t>(state.range(0)));
  GpRegressor gp(GpHyperparams{0.3, 1.0, 1e-2});
  (void)gp.fit(set.x, set.y);
  const std::vector<double> query = {0.1, 0.9, 0.5, 0.3, 0.7, 0.2};
  for (auto _ : state) {
    benchmark::DoNotOptimize(gp.predict(query));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_GpPredict)->Arg(25)->Arg(100)->Arg(200)->Complexity();

// BO GP's scoring path: one predict_batch call over a block of kBatchLanes
// candidates. The manual time is per candidate, so real_time reads directly
// against BM_GpPredict; cpu_time stays per block.
void BM_GpPredictBatch(benchmark::State& state) {
  const auto set = make_training_set(static_cast<std::size_t>(state.range(0)));
  GpRegressor gp(GpHyperparams{0.3, 1.0, 1e-2});
  (void)gp.fit(set.x, set.y);
  constexpr std::size_t kLanes = GpRegressor::kBatchLanes;
  std::vector<std::vector<double>> queries;
  for (std::size_t l = 0; l < kLanes; ++l) {
    const double t = static_cast<double>(l) / kLanes;
    queries.push_back({0.1 + t * 0.8, 0.9 - t * 0.5, 0.5, 0.3 + t * 0.2, 0.7, 0.2 + t * 0.6});
  }
  std::vector<GpPrediction> out(kLanes);
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    gp.predict_batch(queries, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
    const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
    state.SetIterationTime(elapsed.count() / kLanes);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_GpPredictBatch)->Arg(25)->Arg(100)->Arg(200)->UseManualTime()->Complexity();

void BM_GpHyperparamSearch(benchmark::State& state) {
  const auto set = make_training_set(static_cast<std::size_t>(state.range(0)));
  GpRegressor gp;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gp.optimize_hyperparams(set.x, set.y));
  }
}
BENCHMARK(BM_GpHyperparamSearch)->Arg(50)->Arg(120);

}  // namespace

BENCHMARK_MAIN();
