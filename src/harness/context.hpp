#pragma once
// Per-(benchmark, architecture) experiment context: binds the analytical
// performance model to the tuner-facing search space, computes the study
// optimum by exhaustive noiseless sweep, and pre-collects the paper's
// non-SMBO sample dataset.

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "imagecl/benchmark_suite.hpp"
#include "simgpu/arch.hpp"
#include "simgpu/faults.hpp"
#include "simgpu/noise.hpp"
#include "simgpu/perf_model.hpp"
#include "tuner/dataset.hpp"
#include "tuner/evaluator.hpp"
#include "tuner/objective.hpp"
#include "tuner/search_space.hpp"

namespace repro::harness {

/// Map a tuner configuration (paper parameter order) onto a kernel launch
/// configuration.
[[nodiscard]] simgpu::KernelConfig to_kernel_config(const tuner::Configuration& config);

class BenchmarkContext {
 public:
  /// Builds the model cache, sweeps the executable space for the noiseless
  /// optimum (parallel), and collects `dataset_size` pre-measured samples.
  /// When `faults` is enabled, dataset collection runs under the same fault
  /// regime (faulted entries are recorded as invalid); the default model is
  /// disabled and changes nothing.
  BenchmarkContext(std::shared_ptr<const imagecl::Benchmark> benchmark,
                   const simgpu::GpuArch& arch, std::size_t dataset_size,
                   std::uint64_t master_seed,
                   const simgpu::FaultModel& faults = {});

  [[nodiscard]] const std::string& benchmark_name() const noexcept;
  [[nodiscard]] const simgpu::GpuArch& arch() const noexcept { return arch_; }
  [[nodiscard]] const tuner::ParamSpace& space() const noexcept { return space_; }
  [[nodiscard]] double optimum_us() const noexcept { return optimum_us_; }
  [[nodiscard]] const tuner::Dataset& dataset() const noexcept { return dataset_; }

  /// Noiseless model time; NaN when invalid. Sums the per-pass model
  /// tables, which the constructor's exhaustive sweep has already filled,
  /// so a call is one lock-free table read per pass.
  [[nodiscard]] double true_time_us(const tuner::Configuration& config) const;

  /// One noisy measurement (the objective the paper's pipeline exposes).
  [[nodiscard]] double measure_us(const tuner::Configuration& config,
                                  repro::Rng& rng) const;

  /// One possibly-faulty measurement with full classification. The injector
  /// carries the sticky device-reset episode across the caller's sequential
  /// measurement stream; a disabled injector reproduces measure_us exactly.
  [[nodiscard]] tuner::Evaluation measure_eval(const tuner::Configuration& config,
                                               repro::Rng& rng,
                                               simgpu::FaultInjector& injector) const;

  /// Objective closure bound to an experiment RNG (caller keeps `rng` alive).
  /// With the context's fault model enabled the closure owns a fault
  /// injector seeded from `rng`; disabled, it is byte-identical to before.
  [[nodiscard]] tuner::Objective make_objective(repro::Rng& rng) const;

  /// Objective sharing the caller's injector (so search and the final
  /// re-measurement see one continuous fault stream).
  [[nodiscard]] tuner::Objective make_objective(repro::Rng& rng,
                                                simgpu::FaultInjector& injector) const;

  /// Mean of `repeats` measurements (the paper's 10-fold final test).
  [[nodiscard]] double measure_repeated_us(const tuner::Configuration& config,
                                           repro::Rng& rng, std::size_t repeats) const;

  /// Fault-aware final test: faulted repeats are dropped (and tallied into
  /// `counters` when given); returns the mean of the completed repeats, NaN
  /// when the configuration is invalid or every repeat was lost. Matches the
  /// plain overload exactly when the injector is disabled.
  [[nodiscard]] double measure_repeated_us(const tuner::Configuration& config,
                                           repro::Rng& rng, std::size_t repeats,
                                           simgpu::FaultInjector& injector,
                                           tuner::FailureCounters* counters) const;

  /// Override the measurement-noise model (ablation benches). Call before
  /// running experiments; not thread-safe against concurrent measurement.
  void set_noise_model(const simgpu::NoiseModel& noise) noexcept { noise_ = noise; }
  [[nodiscard]] const simgpu::NoiseModel& noise_model() const noexcept { return noise_; }

  /// Override the fault regime (ablation benches, run_study). Call before
  /// running experiments; not thread-safe against concurrent measurement.
  /// The pre-collected dataset is NOT re-collected: it models a clean
  /// pre-measured archive (a Kernel Tuner cache file); pass the model to the
  /// constructor to collect the dataset under faults too.
  void set_fault_model(const simgpu::FaultModel& faults) noexcept { faults_ = faults; }
  [[nodiscard]] const simgpu::FaultModel& fault_model() const noexcept { return faults_; }

 private:
  std::shared_ptr<const imagecl::Benchmark> benchmark_;
  simgpu::GpuArch arch_;
  /// One memoizing cache per kernel launch of the benchmark (pipelines sum).
  std::vector<std::unique_ptr<simgpu::CachedPerfModel>> pass_caches_;
  simgpu::NoiseModel noise_;
  simgpu::FaultModel faults_;
  tuner::ParamSpace space_;
  tuner::Dataset dataset_;
  double optimum_us_ = 0.0;
};

}  // namespace repro::harness
