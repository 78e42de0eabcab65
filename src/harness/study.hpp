#pragma once
// Full study driver implementing the paper's experimental design
// (Sections V and VI): for every benchmark x architecture x algorithm x
// sample size, run E(S) independent experiments, re-measure each
// experiment's final configuration 10 times, and collect the outcome
// distributions that Figs. 2-4 aggregate.
//
// Experiment counts follow the paper's rule E(S) = 20000 / S (i.e. 800,
// 400, 200, 100, 50 for S = 25..400), divided by `scale_divisor` so the
// default bench run finishes in minutes on one core; --full restores paper
// scale.

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "harness/context.hpp"

namespace repro::harness {

struct StudyConfig {
  std::vector<std::string> algorithms;     ///< registry ids; default: paper set
  std::vector<std::string> benchmarks = {"add", "harris", "mandelbrot"};
  std::vector<std::string> architectures = {"gtx980", "titanv", "rtxtitan"};
  std::vector<std::size_t> sample_sizes = {25, 50, 100, 200, 400};
  std::size_t dataset_target = 20000;      ///< paper's non-SMBO dataset size
  double scale_divisor = 32.0;             ///< 1.0 = paper scale
  std::size_t min_experiments = 4;
  std::size_t final_evaluations = 10;
  std::uint64_t master_seed = 0x5EEDBA5Eu;
  simgpu::FaultModel faults;               ///< measurement faults; off by default
  tuner::RetryPolicy retry;                ///< transient-failure retries; off by default
  /// Non-empty: append a per-cell checkpoint to this file as cells complete
  /// and, when the file already exists, resume from it (completed cells are
  /// not re-run; results are identical to an uninterrupted run under the
  /// same master_seed).
  std::string checkpoint_path;

  [[nodiscard]] std::size_t experiments_for(std::size_t sample_size) const;
  /// Dataset entries needed so every (size, experiment) subdivision fits.
  [[nodiscard]] std::size_t dataset_size_needed() const;
};

/// Outcome distribution of one study cell.
struct CellOutcomes {
  /// Final 10-fold-mean runtime per experiment (microseconds); NaN entries
  /// (no valid configuration found) are dropped before aggregation.
  std::vector<double> final_times_us;
  /// Experiments that produced a NaN outcome (retries exhausted, no valid
  /// configuration, or an exception caught by the study driver).
  std::size_t failed_experiments = 0;
  /// Evaluation-level tallies summed over the cell's experiments.
  tuner::FailureCounters failures;
};

struct PanelResults {
  std::string benchmark;
  std::string architecture;
  double optimum_us = 0.0;
  /// cells[algorithm_index][size_index]
  std::vector<std::vector<CellOutcomes>> cells;
};

struct StudyResults {
  StudyConfig config;
  std::vector<PanelResults> panels;  ///< benchmark-major, then architecture

  [[nodiscard]] const PanelResults& panel(const std::string& benchmark,
                                          const std::string& architecture) const;
};

/// Run the study. Progress is logged to stderr; all experiment work is
/// parallelized on the global thread pool and fully deterministic in
/// `config.master_seed`. Experiments never abort the campaign: anomalies
/// are recorded as NaN outcomes with per-cell failure tallies, and worker
/// exceptions are caught at the cell boundary. A `scale_divisor` that is not
/// finite and positive, or a sample size of 0, throws std::invalid_argument
/// before any work starts.
[[nodiscard]] StudyResults run_study(const StudyConfig& config);

/// Per-experiment knobs shared by run_study and the ablation benches.
struct ExperimentOptions {
  std::size_t final_evaluations = 10;
  tuner::RetryPolicy retry;  ///< transient-failure retries (default: none)
};

/// Full record of one experiment.
struct ExperimentOutcome {
  double final_time_us = std::numeric_limits<double>::quiet_NaN();
  tuner::FailureCounters counters;  ///< evaluation-level tallies
  bool aborted = false;             ///< the experiment threw (message logged)
};

/// Run one experiment with fault/retry handling: the context's fault model
/// drives one injector across search and the final re-measurement, and the
/// returned counters tally every anomaly. Does not throw on evaluation
/// anomalies; `aborted` reports unexpected exceptions instead.
[[nodiscard]] ExperimentOutcome run_experiment_detailed(const BenchmarkContext& context,
                                                        const std::string& algorithm_id,
                                                        std::size_t sample_size,
                                                        std::size_t experiment_index,
                                                        std::uint64_t seed,
                                                        const ExperimentOptions& options);

/// Run one experiment (used by run_study and unit tests): returns the final
/// configuration's 10-fold mean runtime, NaN if the algorithm found no
/// valid configuration. The indexed variant selects which dataset
/// subdivision the non-SMBO algorithms (rs, rf) consume.
[[nodiscard]] double run_single_experiment_indexed(const BenchmarkContext& context,
                                                   const std::string& algorithm_id,
                                                   std::size_t sample_size,
                                                   std::size_t experiment_index,
                                                   std::size_t final_evaluations,
                                                   std::uint64_t seed);

[[nodiscard]] double run_single_experiment(const BenchmarkContext& context,
                                           const std::string& algorithm_id,
                                           std::size_t sample_size,
                                           std::size_t final_evaluations,
                                           std::uint64_t seed);

}  // namespace repro::harness
