// Extension: HyperBand and BOHB vs the paper's algorithms (Section VIII-A
// names "HyperBand (HB) and Bayesian Optimization HyperBand (BOHB)" as the
// comparison of special interest for future work).
//
// Multi-fidelity methods spend their budget in fractional units: a
// quarter-size proxy problem costs a quarter of a full evaluation. We
// compare HB and BOHB against RS and BO TPE at *equal total cost* (budget
// units = full-fidelity evaluations) and judge every method by the
// noiseless quality of its final full-fidelity configuration.
//
//   ./extension_hyperband [--bench harris] [--arch titanv] [--repeats 11]

#include <cmath>
#include <cstdio>
#include <vector>

#include "common/cli.hpp"
#include "common/log.hpp"
#include "common/fmt.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "harness/multifidelity_context.hpp"
#include "stats/descriptive.hpp"
#include "tuner/multifidelity/hyperband.hpp"
#include "tuner/registry.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace repro;
  CliParser cli("extension_hyperband", "HyperBand/BOHB vs the paper's algorithms");
  cli.add_option("bench", "benchmark", "harris");
  cli.add_option("arch", "architecture", "titanv");
  cli.add_option("repeats", "experiments per cell", "11");
  cli.add_option("out", "directory for CSV artifacts", "");
  if (!cli.parse(argc, argv)) return 0;

  const harness::MultiFidelityContext context(
      cli.get("bench"), simgpu::arch_by_name(cli.get("arch")),
      {1.0 / 27.0, 1.0 / 9.0, 1.0 / 3.0}, 20220406);
  const harness::BenchmarkContext& full = context.full();
  const auto repeats = static_cast<std::size_t>(cli.get_int("repeats"));
  const std::vector<double> budgets = {25, 50, 100, 200};

  std::printf("HyperBand extension: %s on %s (optimum %.1f us)\n"
              "fidelity levels: 1/27, 1/9, 1/3, 1 (problem-size proxies)\n\n",
              cli.get("bench").c_str(), cli.get("arch").c_str(), full.optimum_us());

  Table table({"method", "budget_units", "median_pct_of_optimum",
               "mean_evals_per_run"});
  table.set_precision(2);
  std::vector<std::vector<double>> heat;
  std::vector<std::string> row_labels;

  const std::vector<std::string> methods = {"RS", "BO TPE", "HB", "BOHB"};
  for (const std::string& method : methods) {
    row_labels.push_back(method);
    std::vector<double> row;
    for (double budget : budgets) {
      std::vector<double> percents;
      double eval_total = 0.0;
      for (std::size_t r = 0; r < repeats; ++r) {
        Rng rng(seed_combine(seed_from_string(method),
                             static_cast<std::uint64_t>(budget) * 1000 + r));
        tuner::Configuration best_config;
        if (method == "HB" || method == "BOHB") {
          tuner::FidelityEvaluator evaluator(full.space(),
                                             context.make_objective(rng), budget);
          tuner::FidelityTuneResult result;
          if (method == "HB") {
            tuner::HyperBand hb;
            result = hb.minimize(full.space(), evaluator, rng);
          } else {
            tuner::Bohb bohb;
            result = bohb.minimize(full.space(), evaluator, rng);
          }
          if (!result.found_valid) continue;
          best_config = result.best_config;
          eval_total += static_cast<double>(result.evaluations);
        } else {
          tuner::Evaluator evaluator(full.space(), full.make_objective(rng),
                                     static_cast<std::size_t>(budget));
          const auto algorithm = tuner::make_algorithm(method);
          const tuner::TuneResult result =
              algorithm->minimize(full.space(), evaluator, rng);
          if (!result.found_valid) continue;
          best_config = result.best_config;
          eval_total += static_cast<double>(result.evaluations_used);
        }
        percents.push_back(full.optimum_us() / full.true_time_us(best_config) *
                           100.0);
      }
      const double median = stats::median(percents);
      row.push_back(median);
      table.add_row({method, budget, median,
                     eval_total / static_cast<double>(repeats)});
    }
    heat.push_back(std::move(row));
  }

  std::vector<std::string> col_labels;
  for (double budget : budgets) col_labels.push_back(fmt_double(budget, 0));
  std::fputs(render_heatmap("median % of optimum at equal total cost", row_labels,
                            col_labels, heat, 1)
                 .c_str(),
             stdout);
  std::printf("\nHB/BOHB trade full-fidelity measurements for many cheap proxies\n"
              "(mean_evals_per_run >> budget_units); whether that wins depends on\n"
              "how well the scaled-down problem ranks configurations.\n");
  const std::string out_dir = cli.get("out");
  if (!out_dir.empty() &&
      !table.write_csv_file(out_dir + "/extension_hyperband.csv")) {
    log_error("failed to write {}/extension_hyperband.csv", out_dir);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return repro::run_cli(argc, argv, run); }
