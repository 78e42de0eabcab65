// Microbenchmarks: the GPU performance-model substrate — analytical
// evaluation per kernel, the memoized cache path the experiments actually
// hit, one BenchmarkContext measurement as every search makes it, and the
// exact-vs-fast coalescing analysis.

#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.hpp"
#include "harness/context.hpp"
#include "imagecl/benchmark_suite.hpp"
#include "simgpu/coalescing.hpp"
#include "simgpu/perf_model.hpp"

namespace {

using namespace repro;

void BM_PerfModelEvaluate(benchmark::State& state, const char* name) {
  const auto benchmark_def = imagecl::benchmark_by_name(name);
  const simgpu::GpuArch arch = simgpu::titan_v();
  Rng rng(3);
  for (auto _ : state) {
    const std::size_t index = rng.next_below(simgpu::CachedPerfModel::table_size());
    const simgpu::KernelConfig config = simgpu::CachedPerfModel::unpack(index);
    benchmark::DoNotOptimize(benchmark_def->model().evaluate(arch, config));
  }
}
BENCHMARK_CAPTURE(BM_PerfModelEvaluate, add, "add");
BENCHMARK_CAPTURE(BM_PerfModelEvaluate, harris, "harris");
BENCHMARK_CAPTURE(BM_PerfModelEvaluate, mandelbrot, "mandelbrot");

void BM_CachedModelHit(benchmark::State& state) {
  const auto benchmark_def = imagecl::benchmark_by_name("harris");
  const simgpu::GpuArch arch = simgpu::titan_v();
  const simgpu::CachedPerfModel cache(benchmark_def->model(), arch);
  const simgpu::KernelConfig config{2, 2, 1, 8, 4, 1};
  (void)cache.time_us(config);  // warm the slot
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.time_us(config));
  }
}
BENCHMARK(BM_CachedModelHit);

// BenchmarkContext::measure_us on harris/titanv over a fixed stream of
// paper-space configurations, invalid ones included as SMBO proposes them.
// Threads(4) calls it from four threads at once, as run_study's workers do.
void BM_ContextMeasure(benchmark::State& state) {
  constexpr std::size_t kStream = 4096;  // a power of two, so a mask wraps it
  static const harness::BenchmarkContext context(imagecl::benchmark_by_name("harris"),
                                                 simgpu::titan_v(), 0, 1);
  static const std::vector<tuner::Configuration> stream = [] {
    Rng rng(11);
    std::vector<tuner::Configuration> configs(kStream);
    for (tuner::Configuration& config : configs) config = context.space().sample(rng);
    return configs;
  }();
  const auto thread = static_cast<std::size_t>(state.thread_index());
  Rng rng(seed_combine(12, thread));
  std::size_t next = thread * (kStream / 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(context.measure_us(stream[next], rng));
    next = (next + 1) & (kStream - 1);
  }
}
BENCHMARK(BM_ContextMeasure)->Threads(1)->Threads(4);

void BM_CoalescingExactVsFast(benchmark::State& state, bool fast) {
  const simgpu::GpuArch arch = simgpu::titan_v();
  simgpu::WarpAccessSpec spec;
  spec.element_bytes = 4;
  spec.pitch_x = 8192;
  spec.pitch_y = 8192;
  spec.offsets.clear();
  for (int dy = -3; dy <= 3; ++dy) {
    for (int dx = -3; dx <= 3; ++dx) spec.offsets.push_back({dx, dy, 0});
  }
  const simgpu::KernelConfig config{8, 8, 1, 8, 4, 1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(fast ? simgpu::analyze_warp_accesses_fast(config, arch, spec)
                                  : simgpu::analyze_warp_accesses(config, arch, spec));
  }
}
BENCHMARK_CAPTURE(BM_CoalescingExactVsFast, exact, false);
BENCHMARK_CAPTURE(BM_CoalescingExactVsFast, fast, true);

}  // namespace

BENCHMARK_MAIN();
