// Ablation: search robustness under measurement faults. The paper notes
// that the SMBO methods search the unconstrained space and therefore
// observe *failing* configurations; real tuning sessions additionally lose
// measurements to transient launch failures, hung kernels, and device
// resets. This bench raises the fault rate and measures how each of the
// paper's algorithms degrades when every lost measurement still costs
// budget — extending the paper's failing-configuration discussion to
// evaluation-time faults.
//
//   ./ablation_faults [--bench add] [--arch titanv] [--repeats 9]
//                     [--budget 50] [--retries 2]
//
// The pre-collected dataset that RS/RF consume is a clean archive (a Kernel
// Tuner cache file); their only fault exposure is the online measurements
// (RF's top-10 predictions and everyone's 10-fold final test), so RS is the
// natural robustness baseline.

#include <cmath>
#include <cstdio>
#include <vector>

#include "common/cli.hpp"
#include "common/fmt.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "harness/context.hpp"
#include "harness/study.hpp"
#include "stats/descriptive.hpp"
#include "tuner/registry.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace repro;
  CliParser cli("ablation_faults", "algorithm robustness vs measurement-fault rate");
  cli.add_option("bench", "benchmark", "add");
  cli.add_option("arch", "architecture", "titanv");
  cli.add_option("repeats", "experiments per cell", "9");
  cli.add_option("budget", "sample budget", "50");
  cli.add_option("retries", "max transient retries per evaluation", "2");
  cli.add_option("out", "directory for CSV artifacts", "");
  if (!cli.parse(argc, argv)) return 0;

  const auto repeats = static_cast<std::size_t>(cli.get_int("repeats"));
  const auto budget = static_cast<std::size_t>(cli.get_int("budget"));
  const std::vector<double> rates = {0.0, 0.02, 0.05, 0.10, 0.20};
  const std::vector<std::string> algorithms = {"rs", "rf", "ga", "bogp", "botpe"};

  // RS/RF subdivide the dataset per (budget, experiment); size it to fit.
  harness::BenchmarkContext context(imagecl::benchmark_by_name(cli.get("bench")),
                                    simgpu::arch_by_name(cli.get("arch")),
                                    budget * repeats, 2718);
  std::printf("fault ablation: %s on %s, budget %zu, %zu repeats "
              "(optimum %.1f us)\n\n",
              cli.get("bench").c_str(), cli.get("arch").c_str(), budget, repeats,
              context.optimum_us());

  harness::ExperimentOptions options;
  options.retry.max_retries = static_cast<std::size_t>(cli.get_int("retries"));

  Table table({"fault_rate", "algorithm", "median_pct_of_optimum", "nan_outcomes",
               "transient", "timeout", "crashed", "retries", "retry_successes"});
  table.set_precision(2);
  std::vector<std::vector<double>> heat(algorithms.size(),
                                        std::vector<double>(rates.size()));
  for (std::size_t n = 0; n < rates.size(); ++n) {
    context.set_fault_model(simgpu::FaultModel::with_rate(rates[n]));
    for (std::size_t a = 0; a < algorithms.size(); ++a) {
      std::vector<double> percents;
      tuner::FailureCounters tally;
      std::size_t nan_outcomes = 0;
      for (std::size_t r = 0; r < repeats; ++r) {
        const std::uint64_t seed =
            seed_combine(seed_from_string(algorithms[a]), n * 1000 + r);
        const harness::ExperimentOutcome outcome = harness::run_experiment_detailed(
            context, algorithms[a], budget, r, seed, options);
        tally += outcome.counters;
        if (std::isnan(outcome.final_time_us)) {
          ++nan_outcomes;
          continue;
        }
        percents.push_back(context.optimum_us() / outcome.final_time_us * 100.0);
      }
      heat[a][n] = percents.empty() ? 0.0 : stats::median(percents);
      table.add_row({rates[n], tuner::display_name(algorithms[a]), heat[a][n],
                     static_cast<long long>(nan_outcomes),
                     static_cast<long long>(tally.transient),
                     static_cast<long long>(tally.timeout),
                     static_cast<long long>(tally.crashed),
                     static_cast<long long>(tally.retries),
                     static_cast<long long>(tally.retry_successes)});
    }
  }
  std::vector<std::string> row_labels, col_labels;
  for (const auto& id : algorithms) row_labels.push_back(tuner::display_name(id));
  for (double rate : rates) col_labels.push_back("f=" + fmt_double(rate, 2));
  std::fputs(render_heatmap("median % of optimum vs fault rate", row_labels,
                            col_labels, heat, 1)
                 .c_str(),
             stdout);
  std::fputs("\n", stdout);
  std::fputs(table.to_ascii().c_str(), stdout);
  std::printf("\nFaulted measurements still consume budget, so SMBO methods lose both\n"
              "training data and samples; RS reads a clean pre-collected archive and\n"
              "only risks its final re-measurement, making it the robustness floor.\n");
  const std::string out_dir = cli.get("out");
  if (!out_dir.empty() &&
      !table.write_csv_file(out_dir + "/ablation_faults.csv")) {
    log_error("failed to write {}/ablation_faults.csv", out_dir);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return repro::run_cli(argc, argv, run); }
