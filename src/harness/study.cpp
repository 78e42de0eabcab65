#include "harness/study.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <unordered_set>

#include "common/fmt.hpp"
#include "common/log.hpp"
#include "common/thread_annotations.hpp"
#include "common/thread_pool.hpp"
#include "harness/results_io.hpp"
#include "tuner/forest/random_forest.hpp"
#include "tuner/registry.hpp"

namespace repro::harness {

std::size_t StudyConfig::experiments_for(std::size_t sample_size) const {
  const double full = static_cast<double>(dataset_target) /
                      static_cast<double>(sample_size);  // paper: E(S) = 20000/S
  const auto scaled = static_cast<std::size_t>(std::llround(full / scale_divisor));
  return std::max(min_experiments, scaled);
}

std::size_t StudyConfig::dataset_size_needed() const {
  std::size_t needed = 0;
  for (std::size_t size : sample_sizes) {
    needed = std::max(needed, experiments_for(size) * size);
  }
  return needed;
}

const PanelResults& StudyResults::panel(const std::string& benchmark,
                                        const std::string& architecture) const {
  for (const PanelResults& p : panels) {
    if (p.benchmark == benchmark && p.architecture == architecture) return p;
  }
  throw std::out_of_range("no panel for " + benchmark + "/" + architecture);
}

namespace {

/// Paper RS: minimum of the experiment's dataset subdivision; the winning
/// configuration is then re-measured.
tuner::Configuration rs_pick(const BenchmarkContext& context, std::size_t sample_size,
                             std::size_t experiment_index) {
  const auto slice = context.dataset().subdivision(sample_size, experiment_index);
  const tuner::DatasetEntry* best = nullptr;
  for (const tuner::DatasetEntry& entry : slice) {
    if (!entry.valid) continue;
    if (best == nullptr || entry.value < best->value) best = &entry;
  }
  if (best == nullptr) return {};
  return best->config;
}

/// Paper RF (Section VI-B): train on the subdivision's first S-10 samples,
/// rank an executable candidate pool, measure the top 10 predictions, and
/// output the best *of those predictions*.
tuner::Configuration rf_pick(const BenchmarkContext& context, std::size_t sample_size,
                             std::size_t experiment_index, repro::Rng& rng,
                             simgpu::FaultInjector& injector,
                             tuner::FailureCounters& counters) {
  constexpr std::size_t kPredictions = 10;
  constexpr std::size_t kCandidatePool = 2048;
  const auto slice = context.dataset().subdivision(sample_size, experiment_index);
  const std::size_t train_count =
      slice.size() > kPredictions ? slice.size() - kPredictions : slice.size();

  std::vector<std::vector<double>> X;
  std::vector<double> y;
  std::unordered_set<std::uint64_t> seen;
  for (std::size_t i = 0; i < train_count; ++i) {
    if (!slice[i].valid) continue;
    X.push_back(context.space().normalize(slice[i].config));
    y.push_back(slice[i].value);
    seen.insert(context.space().encode(slice[i].config));
  }
  if (X.size() < 2) return rs_pick(context, sample_size, experiment_index);

  tuner::RandomForestRegressor forest;
  forest.fit(X, y, rng);

  struct Scored {
    double prediction;
    tuner::Configuration config;
  };
  // Sample sequentially (RNG stream), predict in a batch: forest traversal
  // is pure, so parallel_for fills indexed slots and the partial_sort below
  // sees the same pool the fused loop produced. rf_pick runs inside
  // run_study's own parallel_for, where the nested call degrades to an
  // inline loop instead of deadlocking the pool.
  std::vector<Scored> pool;
  pool.reserve(kCandidatePool);
  for (std::size_t i = 0; i < kCandidatePool; ++i) {
    tuner::Configuration candidate = context.space().sample_executable(rng);
    if (seen.contains(context.space().encode(candidate))) continue;
    pool.push_back({0.0, std::move(candidate)});
  }
  repro::parallel_for(
      0, pool.size(),
      [&](std::size_t i) {
        pool[i].prediction =
            forest.predict(context.space().normalize(pool[i].config));
      },
      32);
  if (pool.empty()) return rs_pick(context, sample_size, experiment_index);
  const std::size_t keep = std::min<std::size_t>(kPredictions, pool.size());
  std::partial_sort(pool.begin(), pool.begin() + keep, pool.end(),
                    [](const Scored& a, const Scored& b) {
                      return a.prediction < b.prediction;
                    });

  // Measure each top prediction once; the best measurement is the output.
  // Faulted measurements are tallied and lose their prediction slot.
  const tuner::Configuration* best_config = nullptr;
  double best_value = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < keep; ++i) {
    const tuner::Evaluation eval = context.measure_eval(pool[i].config, rng, injector);
    counters.count(eval.status);
    if (eval.valid && eval.value < best_value) {
      best_value = eval.value;
      best_config = &pool[i].config;
    }
  }
  if (best_config == nullptr) return rs_pick(context, sample_size, experiment_index);
  return *best_config;
}

/// SMBO path: budgeted sequential search through the Evaluator, which
/// retries transient failures per the policy (each retry costs budget).
tuner::Configuration smbo_pick(const BenchmarkContext& context,
                               const std::string& algorithm_id, std::size_t sample_size,
                               repro::Rng& rng, simgpu::FaultInjector& injector,
                               const tuner::RetryPolicy& retry,
                               tuner::FailureCounters& counters) {
  const tuner::Objective objective = context.make_objective(rng, injector);
  tuner::Evaluator evaluator(context.space(), objective, sample_size);
  evaluator.set_retry_policy(retry);
  const auto algorithm = tuner::make_algorithm(algorithm_id);
  const tuner::TuneResult result = algorithm->minimize(context.space(), evaluator, rng);
  counters += evaluator.counters();
  if (!result.found_valid) return {};
  return result.best_config;
}

}  // namespace

ExperimentOutcome run_experiment_detailed(const BenchmarkContext& context,
                                          const std::string& algorithm_id,
                                          std::size_t sample_size,
                                          std::size_t experiment_index,
                                          std::uint64_t seed,
                                          const ExperimentOptions& options) {
  ExperimentOutcome out;
  try {
    repro::Rng rng(seed);
    // One injector per experiment: search and the final re-measurement share
    // a sequential measurement stream, so a device reset late in the search
    // can poison the first final repeats — as it would on real hardware.
    simgpu::FaultInjector injector(context.fault_model(),
                                   seed_combine(seed, 0xFA17u));
    tuner::Configuration final_config;
    if (algorithm_id == "rs") {
      final_config = rs_pick(context, sample_size, experiment_index);
    } else if (algorithm_id == "rf") {
      final_config = rf_pick(context, sample_size, experiment_index, rng, injector,
                             out.counters);
    } else {
      final_config = smbo_pick(context, algorithm_id, sample_size, rng, injector,
                               options.retry, out.counters);
    }
    if (!final_config.empty()) {
      out.final_time_us = context.measure_repeated_us(
          final_config, rng, options.final_evaluations, injector, &out.counters);
    }
  } catch (const std::exception& error) {
    // Graceful degradation: a single experiment must never take down the
    // campaign. The outcome stays NaN and the anomaly is attributable.
    out.aborted = true;
    out.final_time_us = std::numeric_limits<double>::quiet_NaN();
    log_warn("experiment {}: {} S={} #{} aborted: {}", context.benchmark_name(),
             algorithm_id, sample_size, experiment_index, error.what());
  }
  return out;
}

double run_single_experiment_indexed(const BenchmarkContext& context,
                                     const std::string& algorithm_id,
                                     std::size_t sample_size, std::size_t experiment_index,
                                     std::size_t final_evaluations, std::uint64_t seed) {
  ExperimentOptions options;
  options.final_evaluations = final_evaluations;
  return run_experiment_detailed(context, algorithm_id, sample_size, experiment_index,
                                 seed, options)
      .final_time_us;
}

double run_single_experiment(const BenchmarkContext& context,
                             const std::string& algorithm_id, std::size_t sample_size,
                             std::size_t final_evaluations, std::uint64_t seed) {
  return run_single_experiment_indexed(context, algorithm_id, sample_size, 0,
                                       final_evaluations, seed);
}

StudyResults run_study(const StudyConfig& config_in) {
  StudyConfig config = config_in;
  if (config.algorithms.empty()) config.algorithms = tuner::paper_algorithms();
  // Experiment counts and the dataset are sized from these two, so reject
  // values that would make them infinite or divide by zero.
  if (!std::isfinite(config.scale_divisor) || config.scale_divisor <= 0.0) {
    throw std::invalid_argument(
        fmt("run_study: scale_divisor must be finite and positive, got {}", config.scale_divisor));
  }
  for (std::size_t size : config.sample_sizes) {
    if (size == 0) throw std::invalid_argument("run_study: sample sizes must be at least 1");
  }
  // An unknown id would abort each of its experiments and then kill the
  // process when the figures look up its display name, after all the work.
  for (const std::string& id : config.algorithms) {
    if (!tuner::is_algorithm(id)) {
      throw std::invalid_argument(fmt("run_study: unknown algorithm '{}'", id));
    }
  }

  StudyResults results;
  results.config = config;

  // Load completed work when resuming; refuse a checkpoint from a different
  // campaign (the determinism guarantee only holds under the same seed).
  StudyCheckpoint checkpoint;
  const bool checkpointing = !config.checkpoint_path.empty();
  if (checkpointing) {
    std::error_code ec;
    if (std::filesystem::exists(config.checkpoint_path, ec)) {
      checkpoint = load_checkpoint(config.checkpoint_path);
      if (!checkpoint.empty() && checkpoint.master_seed != config.master_seed) {
        throw std::runtime_error(
            "run_study: checkpoint " + config.checkpoint_path + " was written under "
            "master_seed " + std::to_string(checkpoint.master_seed) +
            ", not " + std::to_string(config.master_seed));
      }
      log_info("resuming from checkpoint {} ({} cells done)", config.checkpoint_path,
               checkpoint.cells.size());
    }
    if (!checkpoint_begin(config.checkpoint_path, config.master_seed)) {
      throw std::runtime_error("run_study: cannot write checkpoint " +
                               config.checkpoint_path);
    }
  }

  ExperimentOptions options;
  options.final_evaluations = config.final_evaluations;
  options.retry = config.retry;

  const std::size_t num_algos = config.algorithms.size();
  const std::size_t num_sizes = config.sample_sizes.size();
  const std::size_t dataset_size = config.dataset_size_needed();
  for (const std::string& benchmark_name : config.benchmarks) {
    for (const std::string& arch_name : config.architectures) {
      PanelResults panel;
      panel.benchmark = benchmark_name;
      panel.architecture = arch_name;
      panel.cells.assign(num_algos, {});
      for (auto& row : panel.cells) row.assign(num_sizes, {});

      // Restore checkpointed cells; anything else becomes a task below.
      std::vector<char> cell_done(num_algos * num_sizes, 0);
      bool all_cells_done = true;
      for (std::size_t a = 0; a < num_algos; ++a) {
        for (std::size_t s = 0; s < num_sizes; ++s) {
          const std::size_t experiments = config.experiments_for(config.sample_sizes[s]);
          const auto it = checkpoint.cells.find(StudyCheckpoint::cell_key(
              benchmark_name, arch_name, config.algorithms[a], config.sample_sizes[s]));
          if (it != checkpoint.cells.end()) {
            if (it->second.final_times_us.size() != experiments) {
              throw std::runtime_error(
                  "run_study: checkpoint cell " + it->first + " holds " +
                  std::to_string(it->second.final_times_us.size()) +
                  " experiments but the config asks for " +
                  std::to_string(experiments) + " — was the scale changed?");
            }
            panel.cells[a][s] = it->second;
            cell_done[a * num_sizes + s] = 1;
          } else {
            all_cells_done = false;
            panel.cells[a][s].final_times_us.assign(
                experiments, std::numeric_limits<double>::quiet_NaN());
          }
        }
      }

      const std::string panel_key =
          StudyCheckpoint::panel_key(benchmark_name, arch_name);
      const auto optimum_it = checkpoint.panel_optima.find(panel_key);
      if (all_cells_done && optimum_it != checkpoint.panel_optima.end()) {
        // Fully checkpointed panel: skip the (expensive) context build.
        panel.optimum_us = optimum_it->second;
        log_info("panel {}/{} restored from checkpoint", benchmark_name, arch_name);
        results.panels.push_back(std::move(panel));
        continue;
      }

      const simgpu::GpuArch& arch = simgpu::arch_by_name(arch_name);
      const BenchmarkContext context(imagecl::benchmark_by_name(benchmark_name), arch,
                                     dataset_size, config.master_seed, config.faults);
      panel.optimum_us = context.optimum_us();
      if (checkpointing && optimum_it == checkpoint.panel_optima.end()) {
        if (!checkpoint_append_panel(config.checkpoint_path, benchmark_name, arch_name,
                                     panel.optimum_us)) {
          log_error("failed to append panel record to {}", config.checkpoint_path);
        }
      }

      // Flatten (algorithm, size, experiment) of the remaining cells into one
      // parallel task list; track per-cell completion so each cell is
      // checkpointed the moment its last experiment lands.
      struct Task {
        std::size_t algo;
        std::size_t size_index;
        std::size_t experiment;
      };
      std::vector<Task> tasks;
      std::vector<std::vector<std::size_t>> cell_tasks(num_algos * num_sizes);
      for (std::size_t a = 0; a < num_algos; ++a) {
        for (std::size_t s = 0; s < num_sizes; ++s) {
          if (cell_done[a * num_sizes + s]) continue;
          const std::size_t experiments = config.experiments_for(config.sample_sizes[s]);
          for (std::size_t e = 0; e < experiments; ++e) {
            cell_tasks[a * num_sizes + s].push_back(tasks.size());
            tasks.push_back({a, s, e});
          }
        }
      }

      std::vector<ExperimentOutcome> outcomes(tasks.size());
      std::vector<std::atomic<std::size_t>> cell_remaining(num_algos * num_sizes);
      for (std::size_t c = 0; c < cell_tasks.size(); ++c) {
        cell_remaining[c].store(cell_tasks[c].size(), std::memory_order_relaxed);
      }
      repro::Mutex checkpoint_mutex;

      repro::parallel_for(0, tasks.size(), [&](std::size_t t) {
        const Task& task = tasks[t];
        const std::string& algorithm = config.algorithms[task.algo];
        const std::size_t sample_size = config.sample_sizes[task.size_index];
        const std::uint64_t seed = seed_combine(
            seed_combine(config.master_seed,
                         seed_from_string(benchmark_name + "/" + arch_name + "/" +
                                          algorithm)),
            sample_size * 100003ull + task.experiment);
        outcomes[t] = run_experiment_detailed(context, algorithm, sample_size,
                                              task.experiment, seed, options);
        CellOutcomes& cell = panel.cells[task.algo][task.size_index];
        cell.final_times_us[task.experiment] = outcomes[t].final_time_us;

        const std::size_t c = task.algo * num_sizes + task.size_index;
        // acq_rel: the thread that completes the cell observes every other
        // worker's outcome writes before reducing them.
        if (cell_remaining[c].fetch_sub(1, std::memory_order_acq_rel) == 1) {
          for (std::size_t index : cell_tasks[c]) {
            cell.failures += outcomes[index].counters;
          }
          for (double time : cell.final_times_us) {
            if (std::isnan(time)) ++cell.failed_experiments;
          }
          if (checkpointing) {
            repro::MutexLock lock(checkpoint_mutex);
            log_debug("checkpoint: cell {}/{}/{} S={} done ({} experiments)",
                      benchmark_name, arch_name, algorithm, sample_size,
                      cell.final_times_us.size());
            if (!checkpoint_append_cell(config.checkpoint_path, benchmark_name,
                                        arch_name, algorithm, sample_size, cell)) {
              log_error("failed to append cell record to {}", config.checkpoint_path);
            }
          }
        }
      });

      log_info("panel {}/{} done ({} tasks)", benchmark_name, arch_name, tasks.size());
      results.panels.push_back(std::move(panel));
    }
  }
  return results;
}

}  // namespace repro::harness
