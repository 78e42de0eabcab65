// Ablation: BO GP initialization fraction (paper Sections VI-B, VII-A).
//
// The paper initializes gp_minimize with 8% random samples and observes a
// BO GP performance decline from sample size 100 to 200 that it attributes
// to overfitting. This bench sweeps the initialization fraction across
// sample sizes to show how the random/model-driven split shapes that
// behaviour.
//
//   ./ablation_gp_init [--bench mandelbrot] [--arch titanv] [--repeats 11]

#include <cstdio>
#include <vector>

#include "common/cli.hpp"
#include "common/log.hpp"
#include "common/fmt.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "harness/context.hpp"
#include "stats/descriptive.hpp"
#include "tuner/gp/bo_gp.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace repro;
  CliParser cli("ablation_gp_init", "BO GP initialization-fraction sweep");
  cli.add_option("bench", "benchmark", "mandelbrot");
  cli.add_option("arch", "architecture", "titanv");
  cli.add_option("repeats", "experiments per cell", "11");
  cli.add_option("out", "directory for CSV artifacts", "");
  if (!cli.parse(argc, argv)) return 0;

  harness::BenchmarkContext context(imagecl::benchmark_by_name(cli.get("bench")),
                                    simgpu::arch_by_name(cli.get("arch")), 0, 424242);
  const auto repeats = static_cast<std::size_t>(cli.get_int("repeats"));
  const std::vector<double> fractions = {0.04, 0.08, 0.20, 0.40};
  const std::vector<std::size_t> sizes = {25, 50, 100, 200, 400};

  std::printf("BO GP init-fraction ablation: %s on %s (optimum %.1f us)\n"
              "(paper default: 8%% — Section VI-B)\n\n",
              cli.get("bench").c_str(), cli.get("arch").c_str(), context.optimum_us());

  Table table({"init_fraction", "budget", "median_pct_of_optimum"});
  table.set_precision(2);
  std::vector<std::string> row_labels;
  std::vector<std::vector<double>> heat(fractions.size(),
                                        std::vector<double>(sizes.size()));
  for (std::size_t f = 0; f < fractions.size(); ++f) {
    row_labels.push_back("init " + fmt_double(fractions[f] * 100.0, 0) + "%");
    for (std::size_t s = 0; s < sizes.size(); ++s) {
      std::vector<double> percents;
      for (std::size_t r = 0; r < repeats; ++r) {
        Rng rng(seed_combine(1 + f * 100 + s, r));
        tuner::Evaluator evaluator(context.space(), context.make_objective(rng),
                                   sizes[s]);
        tuner::BoGpOptions options;
        options.init_fraction = fractions[f];
        tuner::BoGp algorithm(options);
        const tuner::TuneResult result =
            algorithm.minimize(context.space(), evaluator, rng);
        if (!result.found_valid) continue;
        const double final_us = context.measure_repeated_us(result.best_config, rng, 10);
        percents.push_back(context.optimum_us() / final_us * 100.0);
      }
      heat[f][s] = stats::median(percents);
      table.add_row({fractions[f], static_cast<long long>(sizes[s]), heat[f][s]});
    }
  }
  std::vector<std::string> size_labels;
  for (std::size_t size : sizes) size_labels.push_back(std::to_string(size));
  std::fputs(render_heatmap("median % of optimum", row_labels, size_labels, heat, 1)
                 .c_str(),
             stdout);
  const std::string out_dir = cli.get("out");
  if (!out_dir.empty() &&
      !table.write_csv_file(out_dir + "/ablation_gp_init.csv")) {
    log_error("failed to write {}/ablation_gp_init.csv", out_dir);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return repro::run_cli(argc, argv, run); }
