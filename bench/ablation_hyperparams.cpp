// Ablation: the paper's "best guess hyperparameters" assumption
// (Section V-C): "We have limited our study to best guess hyperparameters,
// assuming that the inherent difference between the algorithms amortizes
// the difference between our best guess hyperparameters and the ideal
// hyperparameters."
//
// This bench tests that assumption directly: sweep GA's population size /
// mutation rate and TPE's gamma, and compare the *within-algorithm* spread
// against the *between-algorithm* spread at the same budget. The assumption
// holds if the former is much smaller than the latter.
//
//   ./ablation_hyperparams [--bench mandelbrot] [--arch titanv] [--repeats 11]

#include <cstdio>
#include <vector>

#include "common/cli.hpp"
#include "common/log.hpp"
#include "common/fmt.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "harness/context.hpp"
#include "stats/descriptive.hpp"
#include "tuner/ga/genetic.hpp"
#include "tuner/tpe/bo_tpe.hpp"

namespace {

using namespace repro;

double run_cell(const harness::BenchmarkContext& context, tuner::SearchAlgorithm& algo,
                std::size_t budget, std::size_t repeats, std::uint64_t salt) {
  std::vector<double> percents;
  for (std::size_t r = 0; r < repeats; ++r) {
    Rng rng(seed_combine(salt, r));
    tuner::Evaluator evaluator(context.space(), context.make_objective(rng), budget);
    const tuner::TuneResult result = algo.minimize(context.space(), evaluator, rng);
    if (!result.found_valid) continue;
    percents.push_back(context.optimum_us() /
                       context.true_time_us(result.best_config) * 100.0);
  }
  return stats::median(percents);
}

int run(int argc, char** argv) {
  CliParser cli("ablation_hyperparams",
                "does the 'best guess hyperparameters' assumption hold?");
  cli.add_option("bench", "benchmark", "mandelbrot");
  cli.add_option("arch", "architecture", "titanv");
  cli.add_option("budget", "sample budget", "200");
  cli.add_option("repeats", "experiments per cell", "11");
  cli.add_option("out", "directory for CSV artifacts", "");
  if (!cli.parse(argc, argv)) return 0;

  const harness::BenchmarkContext context(
      imagecl::benchmark_by_name(cli.get("bench")),
      simgpu::arch_by_name(cli.get("arch")), 0, 8086);
  const auto budget = static_cast<std::size_t>(cli.get_int("budget"));
  const auto repeats = static_cast<std::size_t>(cli.get_int("repeats"));

  std::printf("hyperparameter ablation: %s on %s at budget %zu "
              "(optimum %.1f us)\n\n",
              cli.get("bench").c_str(), cli.get("arch").c_str(), budget,
              context.optimum_us());

  Table table({"algorithm", "hyperparameters", "median_pct_of_optimum"});
  table.set_precision(2);

  // GA: population x mutation-rate grid around the Kernel Tuner defaults.
  std::vector<double> ga_cells;
  for (std::size_t population : {5u, 10u, 20u, 40u}) {
    for (double mutation : {0.05, 0.10, 0.25}) {
      tuner::GaOptions options;
      options.population = population;
      options.mutation_chance = mutation;
      tuner::GeneticAlgorithm ga(options);
      const double median = run_cell(context, ga, budget, repeats,
                                     seed_from_string(fmt("ga{}m{}", population,
                                                          mutation)));
      ga_cells.push_back(median);
      table.add_row({std::string("GA"),
                     fmt("pop={} mut={:.2f}", population, mutation), median});
    }
  }

  // TPE: gamma x startup grid around the Hyperopt defaults.
  std::vector<double> tpe_cells;
  for (double gamma : {0.15, 0.25, 0.50}) {
    for (std::size_t startup : {10u, 20u, 40u}) {
      tuner::BoTpeOptions options;
      options.gamma = gamma;
      options.n_startup = startup;
      tuner::BoTpe tpe(options);
      const double median = run_cell(context, tpe, budget, repeats,
                                     seed_from_string(fmt("tpe{}s{}", gamma, startup)));
      tpe_cells.push_back(median);
      table.add_row({std::string("BO TPE"),
                     fmt("gamma={:.2f} startup={}", gamma, startup), median});
    }
  }

  std::fputs(table.to_ascii().c_str(), stdout);
  const double ga_spread = stats::max(ga_cells) - stats::min(ga_cells);
  const double tpe_spread = stats::max(tpe_cells) - stats::min(tpe_cells);
  const double between =
      std::abs(stats::median(ga_cells) - stats::median(tpe_cells));
  std::printf("\nwithin-GA spread: %.1f points; within-TPE spread: %.1f points;\n"
              "between-algorithm gap (medians): %.1f points\n"
              "=> the paper's amortization assumption %s here.\n",
              ga_spread, tpe_spread, between,
              (ga_spread < 2.5 * between && tpe_spread < 2.5 * between)
                  ? "holds"
                  : "is questionable");
  const std::string out_dir = cli.get("out");
  if (!out_dir.empty() &&
      !table.write_csv_file(out_dir + "/ablation_hyperparams.csv")) {
    log_error("failed to write {}/ablation_hyperparams.csv", out_dir);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return repro::run_cli(argc, argv, run); }
