// study-fig2: the paper campaign. The untraced run times run_study and the
// four figure builds as a user of the fig binaries sees them. Its outputs are
// checked twice: experiments replayed serially must equal what run_study
// returned, and the titanv rows of the committed fig2 CSV must come out byte
// for byte.
//
// The traced run replays the whole campaign with run_study's task order and
// seeds, calling each layer's public entry points itself so it can put spans
// around them: BenchmarkContext construction, one experiment per task, and
// for SMBO experiments the search (make_algorithm(...)->minimize) split from
// the measurements by wrapping the Objective it is given. rs and SMBO picks
// are rebuilt from public API; rf runs through run_experiment_detailed as
// one opaque span. The traced figures must equal the untraced ones.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <unistd.h>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "harness/context.hpp"
#include "harness/report.hpp"
#include "harness/study.hpp"
#include "imagecl/benchmark_suite.hpp"
#include "simgpu/arch.hpp"
#include "tuner/registry.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace repro;
using harness::BenchmarkContext;
using harness::StudyConfig;
using harness::StudyResults;

constexpr std::uint64_t kPaperSeed = 1592653589;
constexpr const char* kArch = "titanv";
/// Context builds per set-up; setup_s is their median.
constexpr int kSetupRepeats = 3;
/// Experiments the workload seed draws for the serial cross-check.
constexpr std::size_t kSeededReplays = 25;
/// Passes over the timed replay set.
constexpr std::size_t kTimedPasses = 5;

/// The campaign regenerates the committed figures, so it always runs under
/// the paper's master seed; the workload seed picks the cross-check sample.
StudyConfig campaign_config(bool mini) {
  StudyConfig config;
  config.algorithms = tuner::paper_algorithms();
  config.architectures = {kArch};
  config.master_seed = kPaperSeed;
  if (mini) {
    config.benchmarks = {"add"};
    config.sample_sizes = {25, 50};
    config.scale_divisor = 1000.0;
  }
  return config;
}

/// run_study's per-experiment seed.
std::uint64_t experiment_seed(const StudyConfig& config, const std::string& benchmark,
                              const std::string& arch, const std::string& algorithm,
                              std::size_t sample_size, std::size_t experiment) {
  return seed_combine(
      seed_combine(config.master_seed,
                   seed_from_string(benchmark + "/" + arch + "/" + algorithm)),
      sample_size * 100003ull + experiment);
}

/// Evaluations one campaign performs: every experiment's search budget plus
/// its final re-measurements.
std::size_t campaign_evaluations(const StudyConfig& config) {
  std::size_t per_panel = 0;
  for (std::size_t size : config.sample_sizes) {
    per_panel += config.experiments_for(size) * (size + config.final_evaluations);
  }
  return per_panel * config.algorithms.size() * config.benchmarks.size() *
         config.architectures.size();
}

std::size_t campaign_experiments(const StudyConfig& config) {
  std::size_t per_panel = 0;
  for (std::size_t size : config.sample_sizes) per_panel += config.experiments_for(size);
  return per_panel * config.algorithms.size() * config.benchmarks.size() *
         config.architectures.size();
}

std::unique_ptr<BenchmarkContext> build_context(const StudyConfig& config,
                                                const std::string& benchmark,
                                                const std::string& arch) {
  auto context = std::make_unique<BenchmarkContext>(
      imagecl::benchmark_by_name(benchmark), simgpu::arch_by_name(arch),
      config.dataset_size_needed(), config.master_seed, config.faults);
#if __has_include("simgpu/mean_cache.hpp")
  // Same memo sizing as run_study, so the traced replay sees its hit ratio.
  std::size_t measurements = 0;
  for (std::size_t size : config.sample_sizes) {
    measurements += config.experiments_for(size) * size;
  }
  context->set_mean_cache_capacity(2 * config.algorithms.size() * measurements +
                                   2 * config.dataset_size_needed());
#endif
  return context;
}

struct Figures {
  std::string text;  ///< all four renderings
  std::string csv[4];
};

Figures build_figures(const StudyResults& results) {
  const harness::FigureOutput outputs[4] = {
      harness::make_fig2(results), harness::make_fig3(results),
      harness::make_fig4a(results), harness::make_fig4b(results)};
  Figures figures;
  for (int i = 0; i < 4; ++i) {
    figures.text += outputs[i].text;
    std::ostringstream csv;
    outputs[i].table.write_csv(csv);
    figures.csv[i] = csv.str();
  }
  return figures;
}

bool same_figures(const Figures& a, const Figures& b) {
  if (a.text != b.text) return false;
  for (int i = 0; i < 4; ++i) {
    if (a.csv[i] != b.csv[i]) return false;
  }
  return true;
}

bool same_outcome(double a, double b) {
  return (std::isnan(a) && std::isnan(b)) || std::memcmp(&a, &b, sizeof a) == 0;
}

/// Observer of one replayed experiment: spans in traced runs, and the
/// in-process ask/tell split of SMBO searches (ask = time until the search
/// requests its next measurement, tell = the measurement).
struct ExperimentProbe {
  Trace* trace = nullptr;
  std::size_t parent = Trace::kNone;
  std::uint64_t op = 0;
  std::vector<double>* ask_us = nullptr;
  std::vector<double>* tell_us = nullptr;
};

/// One experiment, equal to run_experiment_detailed(...).final_time_us.
double replay_experiment(const BenchmarkContext& context, const std::string& algorithm,
                         std::size_t sample_size, std::size_t experiment,
                         std::uint64_t seed, std::size_t final_evaluations,
                         const ExperimentProbe& probe) {
  if (algorithm == "rf") {
    harness::ExperimentOptions options;
    options.final_evaluations = final_evaluations;
    return harness::run_experiment_detailed(context, algorithm, sample_size, experiment,
                                            seed, options)
        .final_time_us;
  }
  try {
    Rng rng(seed);
    simgpu::FaultInjector injector(context.fault_model(), seed_combine(seed, 0xFA17u));
    tuner::Configuration final_config;
    if (algorithm == "rs") {
      // Paper RS: the best entry of the experiment's dataset subdivision.
      const tuner::DatasetEntry* best = nullptr;
      for (const tuner::DatasetEntry& entry :
           context.dataset().subdivision(sample_size, experiment)) {
        if (entry.valid && (best == nullptr || entry.value < best->value)) best = &entry;
      }
      if (best != nullptr) final_config = best->config;
    } else {
      const tuner::Objective objective = context.make_objective(rng, injector);
      Clock::time_point last = Clock::now();
      ScopedSpan search(probe.trace, "tuner.search." + algorithm, probe.parent, probe.op);
      const tuner::Objective observed = [&](const tuner::Configuration& config) {
        ScopedSpan measure(probe.trace, "simgpu.measure", search.id(), probe.op);
        const Clock::time_point start = Clock::now();
        const tuner::Evaluation evaluation = objective(config);
        const Clock::time_point stop = Clock::now();
        if (probe.ask_us != nullptr) probe.ask_us->push_back(micros_between(last, start));
        if (probe.tell_us != nullptr) probe.tell_us->push_back(micros_between(start, stop));
        last = stop;
        return evaluation;
      };
      tuner::Evaluator evaluator(context.space(), observed, sample_size);
      const tuner::TuneResult result =
          tuner::make_algorithm(algorithm)->minimize(context.space(), evaluator, rng);
      if (result.found_valid) final_config = result.best_config;
    }
    if (final_config.empty()) return std::nan("");
    ScopedSpan final_eval(probe.trace, "simgpu.final_eval", probe.parent, probe.op);
    tuner::FailureCounters counters;
    return context.measure_repeated_us(final_config, rng, final_evaluations, injector,
                                       &counters);
  } catch (const std::exception&) {
    return std::nan("");
  }
}

/// The campaign replayed with run_study's panels, task order and seeds, with
/// spans around every layer call.
struct TracedCampaign {
  StudyResults results;
  Figures figures;
  double wall_s = 0.0;
  double context_build_s = 0.0;
  double parallel_wall_s = 0.0;  ///< summed wall of the per-panel task loops
  double figures_s = 0.0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_lookups = 0;
};

TracedCampaign traced_campaign(const StudyConfig& config, Trace& trace) {
  TracedCampaign out;
  const Clock::time_point campaign_start = Clock::now();
  out.results.config = config;
  const std::size_t num_sizes = config.sample_sizes.size();
  std::uint64_t op = 0;
  for (const std::string& benchmark : config.benchmarks) {
    for (const std::string& arch : config.architectures) {
      harness::PanelResults panel;
      panel.benchmark = benchmark;
      panel.architecture = arch;
      const Clock::time_point build_start = Clock::now();
      std::unique_ptr<BenchmarkContext> context;
      {
        ScopedSpan span(&trace, "harness.context_build", Trace::kNone, op);
        context = build_context(config, benchmark, arch);
      }
      out.context_build_s += seconds_between(build_start, Clock::now());
      panel.optimum_us = context->optimum_us();

      struct Task {
        std::size_t algo, size_index, experiment;
      };
      std::vector<Task> tasks;
      panel.cells.assign(config.algorithms.size(), {});
      for (std::size_t a = 0; a < config.algorithms.size(); ++a) {
        panel.cells[a].assign(num_sizes, {});
        for (std::size_t s = 0; s < num_sizes; ++s) {
          const std::size_t experiments = config.experiments_for(config.sample_sizes[s]);
          panel.cells[a][s].final_times_us.assign(experiments, std::nan(""));
          for (std::size_t e = 0; e < experiments; ++e) tasks.push_back({a, s, e});
        }
      }
      const std::uint64_t first_op = op;
      op += tasks.size();
      const Clock::time_point loop_start = Clock::now();
      repro::parallel_for(0, tasks.size(), [&](std::size_t t) {
        const Task& task = tasks[t];
        const std::string& algorithm = config.algorithms[task.algo];
        const std::size_t size = config.sample_sizes[task.size_index];
        ScopedSpan span(&trace, "harness.experiment." + algorithm, Trace::kNone,
                        first_op + t);
        const ExperimentProbe probe{&trace, span.id(), first_op + t, nullptr, nullptr};
        panel.cells[task.algo][task.size_index].final_times_us[task.experiment] =
            replay_experiment(*context, algorithm, size, task.experiment,
                              experiment_seed(config, benchmark, arch, algorithm, size,
                                              task.experiment),
                              config.final_evaluations, probe);
      });
      out.parallel_wall_s += seconds_between(loop_start, Clock::now());
      for (auto& row : panel.cells) {
        for (harness::CellOutcomes& cell : row) {
          for (double time : cell.final_times_us) cell.failed_experiments += std::isnan(time);
        }
      }
#if __has_include("simgpu/mean_cache.hpp")
      out.cache_hits += context->mean_cache().hits();
      out.cache_lookups += context->mean_cache().lookups();
#endif
      out.results.panels.push_back(std::move(panel));
    }
  }
  const Clock::time_point figures_start = Clock::now();
  {
    ScopedSpan span(&trace, "stats.figures", Trace::kNone, op);
    out.figures = build_figures(out.results);
  }
  const Clock::time_point stop = Clock::now();
  out.figures_s = seconds_between(figures_start, stop);
  out.wall_s = seconds_between(campaign_start, stop);
  return out;
}

void report_study_layers(const TracedCampaign& campaign, const Trace& trace,
                         Report& report) {
  report.layer("harness.context_build_s", campaign.context_build_s);
  double busy = 0.0;
  for (const std::string& algorithm : tuner::paper_algorithms()) {
    const double seconds = trace.total_s("harness.experiment." + algorithm);
    busy += seconds;
    report.layer("harness.experiment_busy_s." + algorithm, seconds);
  }
  const double workers = static_cast<double>(ThreadPool::global().size());
  report.layer("harness.pool_idle_frac",
               campaign.parallel_wall_s > 0.0
                   ? 1.0 - busy / (workers * campaign.parallel_wall_s)
                   : 0.0);
  // Search self time: the SMBO search spans minus their measurement children.
  for (const std::string algorithm : {"ga", "bogp", "botpe"}) {
    report.layer("tuner.self_s." + algorithm, trace.self_s("tuner.search." + algorithm));
  }
  const std::size_t measures = trace.count("simgpu.measure");
  const std::size_t final_evals = trace.count("simgpu.final_eval");
  report.layer("simgpu.measure_calls",
               static_cast<double>(measures +
                                   final_evals * campaign.results.config.final_evaluations));
  report.layer("simgpu.measure_ns_per_call",
               measures > 0 ? trace.total_s("simgpu.measure") * 1e9 /
                                  static_cast<double>(measures)
                            : 0.0);
  report.layer("simgpu.final_eval_s", trace.total_s("simgpu.final_eval"));
  report.layer("simgpu.mean_cache_hit_ratio",
               campaign.cache_lookups > 0 ? static_cast<double>(campaign.cache_hits) /
                                                static_cast<double>(campaign.cache_lookups)
                                          : 0.0);
  report.layer("stats.figures_s", campaign.figures_s);
}

/// Titanv rows (and header) of a committed all-architecture figure CSV.
std::string golden_rows(const std::string& path) {
  std::ifstream in(path);
  if (!in) return {};
  std::string line;
  std::string out;
  bool header = true;
  while (std::getline(in, line)) {
    if (header || line.find(std::string(",") + kArch + ",") != std::string::npos) {
      out += line + "\n";
    }
    header = false;
  }
  return out;
}

}  // namespace

void run_study_workload(const StudyArgs& args, Report& report) {
  const StudyConfig config = campaign_config(args.mini);
  if (args.mini) {
    Trace trace;
    const TracedCampaign campaign = traced_campaign(config, trace);
    report.phase("trace").sent += campaign_experiments(config);
    report.phase("trace").ok += campaign_experiments(config);
    report_study_layers(campaign, trace, report);
    if (!args.trace_path.empty()) trace.write_jsonl(args.trace_path);
    return;
  }

  // Set-up: the campaign's context builds (exhaustive sweep plus dataset),
  // repeated; the last set is kept for the replay sample.
  std::vector<std::unique_ptr<BenchmarkContext>> contexts;
  std::vector<double> setup_s;
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    contexts.clear();
    const Clock::time_point start = Clock::now();
    for (const std::string& benchmark : config.benchmarks) {
      contexts.push_back(build_context(config, benchmark, kArch));
    }
    setup_s.push_back(seconds_between(start, Clock::now()));
    report.phase("setup").add(true);
  }
  report.metric("setup_s", median(setup_s), setup_s.size());

  // Warm-up, untimed: a mini campaign through the same code.
  {
    const StudyResults warm = run_study(campaign_config(true));
    (void)build_figures(warm);
    report.phase("warmup").add(!warm.panels.empty());
  }

  // Measured: whole campaigns, at least one, until the window is used.
  std::vector<double> campaign_s;
  StudyResults results;
  Figures figures;
  const Clock::time_point window_start = Clock::now();
  do {
    const Clock::time_point start = Clock::now();
    results = harness::run_study(config);
    figures = build_figures(results);
    campaign_s.push_back(seconds_between(start, Clock::now()));
    Phase& phase = report.phase("campaign");
    for (const harness::PanelResults& panel : results.panels) {
      for (const auto& row : panel.cells) {
        for (const harness::CellOutcomes& cell : row) {
          phase.sent += cell.final_times_us.size();
          phase.failed += cell.failed_experiments;
          phase.ok += cell.final_times_us.size() - cell.failed_experiments;
        }
      }
    }
  } while (seconds_between(window_start, Clock::now()) < args.seconds);
  const double campaign_median = median(campaign_s);
  report.metric("campaign_s", campaign_median, campaign_s.size());
  std::string campaigns = "campaign wall times (s):";
  for (double seconds : campaign_s) campaigns += " " + std::to_string(seconds);
  report.note(campaigns);
  report.metric("evals_per_s",
                static_cast<double>(campaign_evaluations(config)) / campaign_median,
                campaign_s.size());
  report.metric("peak_rss_mb", read_proc(static_cast<int>(getpid())).peak_rss_mb, 1);

  // Serial replays, each one tuning session a single user would wait for,
  // must equal what run_study returned. The timed set (the first experiment
  // of every cell but the two costliest BO GP cells) is replayed
  // kTimedPasses times; each session and each ask/tell sample is the fastest
  // of its passes, which filters out interference from other processes.
  // --seed draws further experiments as a cross-check.
  const auto replay = [&](std::size_t p, std::size_t a, std::size_t s, std::size_t e,
                          const ExperimentProbe& probe) {
    const harness::PanelResults& panel = results.panels[p];
    const std::string& algorithm = config.algorithms[a];
    const std::size_t size = config.sample_sizes[s];
    const double outcome = replay_experiment(
        *contexts[p], algorithm, size, e,
        experiment_seed(config, panel.benchmark, panel.architecture, algorithm, size, e),
        config.final_evaluations, probe);
    report.check("replay " + panel.benchmark + "/" + algorithm + "/S=" + std::to_string(size) +
                     "#" + std::to_string(e),
                 same_outcome(outcome, panel.cells[a][s].final_times_us[e]));
  };
  const std::size_t num_algos = config.algorithms.size();
  const std::size_t num_sizes = config.sample_sizes.size();
  std::vector<std::vector<double>> session_passes(kTimedPasses);
  std::vector<std::vector<double>> ask_passes(kTimedPasses);
  std::vector<std::vector<double>> tell_passes(kTimedPasses);
  for (std::size_t pass = 0; pass < kTimedPasses; ++pass) {
    for (std::size_t p = 0; p < results.panels.size(); ++p) {
      for (std::size_t a = 0; a < num_algos; ++a) {
        for (std::size_t s = 0; s < num_sizes; ++s) {
          if (config.algorithms[a] == "bogp" && config.sample_sizes[s] >= 200) continue;
          const Clock::time_point start = Clock::now();
          replay(p, a, s, 0,
                 ExperimentProbe{nullptr, Trace::kNone, 0, &ask_passes[pass], &tell_passes[pass]});
          session_passes[pass].push_back(seconds_between(start, Clock::now()) * 1e3);
        }
      }
    }
  }
  const auto fastest = [](const std::vector<std::vector<double>>& passes) {
    std::vector<double> out = passes.front();
    for (const std::vector<double>& pass : passes) {
      for (std::size_t i = 0; i < out.size(); ++i) out[i] = std::min(out[i], pass[i]);
    }
    return out;
  };
  const std::vector<double> session_ms = fastest(session_passes);
  const std::vector<double> ask_us = fastest(ask_passes);
  const std::vector<double> tell_us = fastest(tell_passes);
  Rng pick(seed_combine(args.seed, 0x5E55u));
  for (std::size_t i = 0; i < kSeededReplays; ++i) {
    const std::size_t p = pick.next_below(results.panels.size());
    const std::size_t a = pick.next_below(num_algos);
    const std::size_t s = pick.next_below(num_sizes);
    replay(p, a, s, pick.next_below(config.experiments_for(config.sample_sizes[s])),
           ExperimentProbe{});
  }
  report.metric("session_p50_ms", median(session_ms), session_ms.size());
  report.metric("ask_p50_us", percentile(ask_us, 0.5), ask_us.size());
  report.metric("ask_p90_us", percentile(ask_us, 0.9), ask_us.size());
  report.metric("tell_p50_us", percentile(tell_us, 0.5), tell_us.size());
  report.metric("tell_p90_us", percentile(tell_us, 0.9), tell_us.size());
  report.note("study ask p99 " + std::to_string(percentile(ask_us, 0.99)) +
              " us, tell p99 " + std::to_string(percentile(tell_us, 0.99)) + " us");

  const std::string expected = golden_rows(args.golden_csv);
  report.check("fig2 titanv rows equal " + args.golden_csv,
               !expected.empty() && expected == figures.csv[0]);

  if (args.trace) {
    Trace trace;
    const TracedCampaign campaign = traced_campaign(config, trace);
    report.phase("trace").sent += campaign_experiments(config);
    report.phase("trace").ok += campaign_experiments(config);
    report.check("traced figures equal untraced", same_figures(campaign.figures, figures));
    report_study_layers(campaign, trace, report);
    report.note("tracing overhead: traced campaign " + std::to_string(campaign.wall_s) +
                " s minus untraced " + std::to_string(campaign_median) + " s = " +
                std::to_string(campaign.wall_s - campaign_median) + " s");
    if (!args.trace_path.empty()) trace.write_jsonl(args.trace_path);
  }
}

}  // namespace perfbench
