#include "harness/context.hpp"

#include <atomic>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/log.hpp"
#include "common/thread_pool.hpp"

namespace repro::harness {

simgpu::KernelConfig to_kernel_config(const tuner::Configuration& config) {
  if (config.size() != 6) {
    throw std::invalid_argument("to_kernel_config: expected 6 parameters");
  }
  simgpu::KernelConfig kernel;
  kernel.coarsen_x = static_cast<std::uint32_t>(config[tuner::kThreadsX]);
  kernel.coarsen_y = static_cast<std::uint32_t>(config[tuner::kThreadsY]);
  kernel.coarsen_z = static_cast<std::uint32_t>(config[tuner::kThreadsZ]);
  kernel.wg_x = static_cast<std::uint32_t>(config[tuner::kWgX]);
  kernel.wg_y = static_cast<std::uint32_t>(config[tuner::kWgY]);
  kernel.wg_z = static_cast<std::uint32_t>(config[tuner::kWgZ]);
  return kernel;
}

BenchmarkContext::BenchmarkContext(std::shared_ptr<const imagecl::Benchmark> benchmark,
                                   const simgpu::GpuArch& arch, std::size_t dataset_size,
                                   std::uint64_t master_seed,
                                   const simgpu::FaultModel& faults)
    : benchmark_(std::move(benchmark)),
      arch_(arch),
      faults_(faults),
      space_(tuner::paper_search_space()) {
  for (const simgpu::PerfModel& pass : benchmark_->passes()) {
    pass_caches_.push_back(std::make_unique<simgpu::CachedPerfModel>(pass, arch_));
  }
  noise_.sigma = arch_.noise_sigma;

  // Exhaustive noiseless sweep over the executable space for the study
  // optimum; fills the model cache as a side effect.
  const std::size_t total = simgpu::CachedPerfModel::table_size();
  // CAS-min over exact model values: min is order-independent (no FP
  // accumulation), so the sweep result is deterministic under any schedule.
  std::atomic<double> best{std::numeric_limits<double>::infinity()};  // NOLINT(reprolint-nondet-reduction)
  repro::parallel_for(0, total, [&](std::size_t index) {
    const simgpu::KernelConfig kernel = simgpu::CachedPerfModel::unpack(index);
    if (!kernel.satisfies_wg_constraint()) return;
    double time = 0.0;
    for (const auto& cache : pass_caches_) {
      const double pass_time = cache->time_us(kernel);
      if (std::isnan(pass_time)) return;
      time += pass_time;
    }
    double current = best.load(std::memory_order_relaxed);
    while (time < current &&
           !best.compare_exchange_weak(current, time, std::memory_order_relaxed)) {
    }
  });
  optimum_us_ = best.load();
  if (!std::isfinite(optimum_us_)) {
    throw std::runtime_error("BenchmarkContext: no executable configuration found");
  }
  log_info("context {}/{}: optimum {:.2f} us", benchmark_->name(), arch_.name,
           optimum_us_);

  // Pre-collect the non-SMBO dataset (paper Section VI-B), in parallel with
  // deterministic per-entry seeds.
  if (dataset_size > 0) {
    std::vector<tuner::DatasetEntry> entries(dataset_size);
    repro::parallel_for(0, dataset_size, [&](std::size_t i) {
      const std::uint64_t entry_seed =
          seed_combine(seed_combine(master_seed, seed_from_string(
                                                    benchmark_->name() + "/" +
                                                    arch_.name + "/dataset")),
                       i);
      repro::Rng rng(entry_seed);
      // Entries are collected in parallel, so each gets its own injector:
      // reset episodes poison within an entry's stream only.
      simgpu::FaultInjector injector(faults_, seed_combine(entry_seed, 0xFA17u));
      tuner::DatasetEntry& entry = entries[i];
      entry.config = space_.sample_executable(rng);
      const tuner::Evaluation eval = measure_eval(entry.config, rng, injector);
      entry.value = eval.value;
      entry.valid = eval.valid;
    });
    dataset_ = tuner::Dataset(std::move(entries));
  }
}

double BenchmarkContext::true_time_us(const tuner::Configuration& config) const {
  if (!space_.in_range(config)) return std::numeric_limits<double>::quiet_NaN();
  const simgpu::KernelConfig kernel = to_kernel_config(config);
  double total = 0.0;
  for (const auto& cache : pass_caches_) {
    const double pass_time = cache->time_us(kernel);
    if (std::isnan(pass_time)) return pass_time;
    total += pass_time;
  }
  return total;
}

double BenchmarkContext::measure_us(const tuner::Configuration& config,
                                    repro::Rng& rng) const {
  const double true_time = true_time_us(config);
  if (std::isnan(true_time)) return true_time;
  return noise_.sample(true_time, rng);
}

tuner::Evaluation BenchmarkContext::measure_eval(const tuner::Configuration& config,
                                                 repro::Rng& rng,
                                                 simgpu::FaultInjector& injector) const {
  tuner::Evaluation eval;
  switch (injector.next()) {
    case simgpu::FaultKind::kNone:
      break;
    case simgpu::FaultKind::kTransient:
      eval.status = tuner::EvalStatus::kTransient;
      return eval;
    case simgpu::FaultKind::kTimeout:
      // A hang is killed at the wall budget; report what it cost, not a
      // measurement of the kernel.
      eval.value = injector.model().timeout_wall_us;
      eval.status = tuner::EvalStatus::kTimeout;
      return eval;
    case simgpu::FaultKind::kDeviceReset:
    case simgpu::FaultKind::kPoisoned:
      eval.status = tuner::EvalStatus::kCrashed;
      return eval;
  }
  eval.value = measure_us(config, rng);
  eval.valid = !std::isnan(eval.value);
  eval.status = eval.valid ? tuner::EvalStatus::kOk : tuner::EvalStatus::kInvalid;
  return eval;
}

tuner::Objective BenchmarkContext::make_objective(repro::Rng& rng) const {
  if (faults_.enabled) {
    // The closure owns its injector, seeded from the experiment RNG so the
    // fault stream is deterministic in the experiment seed.
    auto injector = std::make_shared<simgpu::FaultInjector>(faults_, rng());
    return [this, &rng, injector](const tuner::Configuration& config) {
      return measure_eval(config, rng, *injector);
    };
  }
  return [this, &rng](const tuner::Configuration& config) {
    tuner::Evaluation eval;
    eval.value = measure_us(config, rng);
    eval.valid = !std::isnan(eval.value);
    return eval;
  };
}

tuner::Objective BenchmarkContext::make_objective(repro::Rng& rng,
                                                  simgpu::FaultInjector& injector) const {
  return [this, &rng, &injector](const tuner::Configuration& config) {
    return measure_eval(config, rng, injector);
  };
}

double BenchmarkContext::measure_repeated_us(const tuner::Configuration& config,
                                             repro::Rng& rng, std::size_t repeats) const {
  double sum = 0.0;
  for (std::size_t i = 0; i < repeats; ++i) {
    const double value = measure_us(config, rng);
    if (std::isnan(value)) return value;
    sum += value;
  }
  return sum / static_cast<double>(repeats);
}

double BenchmarkContext::measure_repeated_us(const tuner::Configuration& config,
                                             repro::Rng& rng, std::size_t repeats,
                                             simgpu::FaultInjector& injector,
                                             tuner::FailureCounters* counters) const {
  double sum = 0.0;
  std::size_t completed = 0;
  for (std::size_t i = 0; i < repeats; ++i) {
    const tuner::Evaluation eval = measure_eval(config, rng, injector);
    if (counters != nullptr) counters->count(eval.status);
    if (eval.status == tuner::EvalStatus::kInvalid) {
      // Deterministically invalid configuration: identical to the plain
      // overload, the whole final test fails.
      return std::numeric_limits<double>::quiet_NaN();
    }
    if (eval.status != tuner::EvalStatus::kOk) continue;  // faulted repeat: drop
    sum += eval.value;
    ++completed;
  }
  if (completed == 0) return std::numeric_limits<double>::quiet_NaN();
  return sum / static_cast<double>(completed);
}

const std::string& BenchmarkContext::benchmark_name() const noexcept {
  return benchmark_->name();
}

}  // namespace repro::harness
