// Ablation: constraint specification for SMBO methods (paper Section V-C).
//
// The paper could not give its SMBO methods (BO GP, BO TPE) the
// executability constraint wg_x*wg_y*wg_z <= 256 and considered that "a
// design point in which non-SMBO methods are favored". This bench measures
// exactly how much the missing constraint costs: each SMBO method runs with
// and without constraint-aware sampling across the sample sizes, on one
// benchmark/architecture pair per run.
//
//   ./ablation_constraints [--bench harris] [--arch titanv] [--repeats 15]

#include <cmath>
#include <cstdio>
#include <vector>

#include "common/cli.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "harness/context.hpp"
#include "stats/descriptive.hpp"
#include "stats/mann_whitney.hpp"
#include "tuner/gp/bo_gp.hpp"
#include "tuner/tpe/bo_tpe.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace repro;
  CliParser cli("ablation_constraints",
                "cost of withholding the constraint from SMBO methods");
  cli.add_option("bench", "benchmark", "harris");
  cli.add_option("arch", "architecture", "titanv");
  cli.add_option("repeats", "experiments per cell", "15");
  cli.add_option("out", "directory for CSV artifacts", "");
  if (!cli.parse(argc, argv)) return 0;

  harness::BenchmarkContext context(imagecl::benchmark_by_name(cli.get("bench")),
                                    simgpu::arch_by_name(cli.get("arch")), 0, 31337);
  const auto repeats = static_cast<std::size_t>(cli.get_int("repeats"));
  const std::vector<std::size_t> sizes = {25, 50, 100, 200};

  struct Variant {
    const char* label;
    bool constraint_aware;
    bool is_gp;
  };
  const Variant variants[] = {
      {"BO GP (unconstrained)", false, true},
      {"BO GP (constraint-aware)", true, true},
      {"BO TPE (unconstrained)", false, false},
      {"BO TPE (constraint-aware)", true, false},
  };

  Table table({"variant", "budget", "median_pct_of_optimum", "invalid_proposals_mean"});
  table.set_precision(2);
  std::printf("constraint ablation: %s on %s (optimum %.1f us)\n\n",
              cli.get("bench").c_str(), cli.get("arch").c_str(), context.optimum_us());

  for (const Variant& variant : variants) {
    for (std::size_t size : sizes) {
      std::vector<double> percents;
      double invalid_total = 0.0;
      for (std::size_t r = 0; r < repeats; ++r) {
        Rng rng(seed_combine(seed_from_string(variant.label), size * 1000 + r));
        std::size_t invalid = 0;
        Rng measure_rng = rng.split();
        tuner::Objective objective = [&](const tuner::Configuration& config) {
          tuner::Evaluation eval;
          eval.value = context.measure_us(config, measure_rng);
          eval.valid = !std::isnan(eval.value);
          if (!eval.valid) ++invalid;
          return eval;
        };
        tuner::Evaluator evaluator(context.space(), objective, size);
        tuner::TuneResult result;
        if (variant.is_gp) {
          tuner::BoGpOptions options;
          options.constraint_aware = variant.constraint_aware;
          tuner::BoGp algorithm(options);
          result = algorithm.minimize(context.space(), evaluator, rng);
        } else {
          tuner::BoTpeOptions options;
          options.constraint_aware = variant.constraint_aware;
          tuner::BoTpe algorithm(options);
          result = algorithm.minimize(context.space(), evaluator, rng);
        }
        if (result.found_valid) {
          const double final_us =
              context.measure_repeated_us(result.best_config, rng, 10);
          percents.push_back(context.optimum_us() / final_us * 100.0);
        }
        invalid_total += static_cast<double>(invalid);
      }
      table.add_row({std::string(variant.label), static_cast<long long>(size),
                     stats::median(percents),
                     invalid_total / static_cast<double>(repeats)});
    }
  }
  std::fputs(table.to_ascii().c_str(), stdout);
  std::printf("\nInterpretation: the per-cell gap between the two variants of each\n"
              "method is the price of the paper's missing constraint support;\n"
              "invalid_proposals_mean shows how much budget failures consumed.\n");
  const std::string out_dir = cli.get("out");
  if (!out_dir.empty() &&
      !table.write_csv_file(out_dir + "/ablation_constraints.csv")) {
    log_error("failed to write {}/ablation_constraints.csv", out_dir);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return repro::run_cli(argc, argv, run); }
