// Ablation: measurement-noise sensitivity (paper Section VI-A measures each
// configuration once during search "to test the models for how well they
// handle noise in the samples"). This bench scales the noise model's sigma
// and checks whether the algorithm ranking at each sample size survives.
//
//   ./ablation_noise [--bench harris] [--arch gtx980] [--repeats 11]

#include <cstdio>
#include <vector>

#include "common/cli.hpp"
#include "common/log.hpp"
#include "common/fmt.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "harness/context.hpp"
#include "harness/study.hpp"
#include "stats/descriptive.hpp"
#include "tuner/registry.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace repro;
  CliParser cli("ablation_noise", "algorithm ranking vs measurement noise");
  cli.add_option("bench", "benchmark", "harris");
  cli.add_option("arch", "architecture", "gtx980");
  cli.add_option("repeats", "experiments per cell", "11");
  cli.add_option("budget", "sample budget", "100");
  cli.add_option("out", "directory for CSV artifacts", "");
  if (!cli.parse(argc, argv)) return 0;

  const auto repeats = static_cast<std::size_t>(cli.get_int("repeats"));
  const auto budget = static_cast<std::size_t>(cli.get_int("budget"));
  const std::vector<double> sigmas = {0.0, 0.01, 0.05, 0.15};
  const std::vector<std::string> algorithms = {"rs", "ga", "bogp", "botpe"};

  harness::BenchmarkContext context(imagecl::benchmark_by_name(cli.get("bench")),
                                    simgpu::arch_by_name(cli.get("arch")), 0, 2718);
  std::printf("noise ablation: %s on %s, budget %zu (optimum %.1f us)\n\n",
              cli.get("bench").c_str(), cli.get("arch").c_str(), budget,
              context.optimum_us());

  Table table({"noise_sigma", "algorithm", "median_pct_of_optimum"});
  table.set_precision(2);
  std::vector<std::vector<double>> heat(algorithms.size(),
                                        std::vector<double>(sigmas.size()));
  for (std::size_t n = 0; n < sigmas.size(); ++n) {
    simgpu::NoiseModel noise;
    noise.sigma = sigmas[n];
    noise.outlier_probability = sigmas[n] > 0.0 ? 0.02 : 0.0;
    context.set_noise_model(noise);
    for (std::size_t a = 0; a < algorithms.size(); ++a) {
      std::vector<double> percents;
      for (std::size_t r = 0; r < repeats; ++r) {
        Rng rng(seed_combine(seed_from_string(algorithms[a]), n * 1000 + r));
        tuner::Evaluator evaluator(context.space(), context.make_objective(rng), budget);
        const auto algorithm = tuner::make_algorithm(algorithms[a]);
        const tuner::TuneResult result =
            algorithm->minimize(context.space(), evaluator, rng);
        if (!result.found_valid) continue;
        // Final quality judged on the *noiseless* model so that only the
        // search quality (not the final re-measurement) varies with sigma.
        percents.push_back(context.optimum_us() /
                           context.true_time_us(result.best_config) * 100.0);
      }
      heat[a][n] = stats::median(percents);
      table.add_row({sigmas[n], tuner::display_name(algorithms[a]), heat[a][n]});
    }
  }
  std::vector<std::string> row_labels, col_labels;
  for (const auto& id : algorithms) row_labels.push_back(tuner::display_name(id));
  for (double sigma : sigmas) col_labels.push_back("s=" + fmt_double(sigma, 2));
  std::fputs(render_heatmap("median % of optimum (noiseless judgement)", row_labels,
                            col_labels, heat, 1)
                 .c_str(),
             stdout);
  std::printf("\nNoise hurts RS only through mismeasured winners; model-based methods\n"
              "additionally train on unreliable single-sample data.\n");
  const std::string out_dir = cli.get("out");
  if (!out_dir.empty() &&
      !table.write_csv_file(out_dir + "/ablation_noise.csv")) {
    log_error("failed to write {}/ablation_noise.csv", out_dir);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return repro::run_cli(argc, argv, run); }
