// Related-work baseline: the CLTune comparison (Nugteren & Codreanu [11],
// paper Section IV-D). CLTune evaluated RS, SA and PSO with sample sizes
// 107 and 117 over 128 experiment runs and found SA/PSO beat RS with
// benchmark-dependent ordering — but published no significance test. We
// recreate that comparison on our benchmarks *with* the Mann-Whitney U test
// the paper argues such studies need.
//
//   ./ablation_cltune_baselines [--arch titanv] [--experiments 32]

#include <cstdio>
#include <vector>

#include "common/cli.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "harness/context.hpp"
#include "stats/descriptive.hpp"
#include "stats/effect_size.hpp"
#include "stats/mann_whitney.hpp"
#include "tuner/registry.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace repro;
  CliParser cli("ablation_cltune_baselines",
                "CLTune-style RS vs SA vs PSO comparison with significance");
  cli.add_option("arch", "architecture", "titanv");
  cli.add_option("experiments", "runs per cell (CLTune used 128)", "32");
  cli.add_option("out", "directory for CSV artifacts", "");
  if (!cli.parse(argc, argv)) return 0;

  const auto experiments = static_cast<std::size_t>(cli.get_int("experiments"));
  const std::vector<std::size_t> sizes = {107, 117};  // CLTune's sample sizes
  const std::vector<std::string> algorithms = {"rs", "sa", "pso"};

  Table table({"benchmark", "budget", "algorithm", "median_us", "speedup_vs_rs",
               "cles_vs_rs", "mwu_p_vs_rs"});
  table.set_precision(3);

  for (const char* benchmark_name : {"add", "harris", "mandelbrot"}) {
    harness::BenchmarkContext context(imagecl::benchmark_by_name(benchmark_name),
                                      simgpu::arch_by_name(cli.get("arch")), 0, 1337);
    for (std::size_t size : sizes) {
      std::vector<std::vector<double>> outcomes(algorithms.size());
      for (std::size_t a = 0; a < algorithms.size(); ++a) {
        for (std::size_t e = 0; e < experiments; ++e) {
          Rng rng(seed_combine(seed_from_string(algorithms[a]) ^
                                   seed_from_string(benchmark_name),
                               size * 1000 + e));
          tuner::Evaluator evaluator(context.space(), context.make_objective(rng),
                                     size);
          const auto algorithm = tuner::make_algorithm(algorithms[a]);
          const tuner::TuneResult result =
              algorithm->minimize(context.space(), evaluator, rng);
          if (result.found_valid) {
            outcomes[a].push_back(
                context.measure_repeated_us(result.best_config, rng, 10));
          }
        }
      }
      const double rs_median = stats::median(outcomes[0]);
      for (std::size_t a = 0; a < algorithms.size(); ++a) {
        const double median = stats::median(outcomes[a]);
        table.add_row(
            {std::string(benchmark_name), static_cast<long long>(size),
             tuner::display_name(algorithms[a]), median, rs_median / median,
             a == 0 ? 0.5 : stats::cles_less(outcomes[a], outcomes[0]),
             a == 0 ? 1.0
                    : stats::mann_whitney_u(outcomes[a], outcomes[0]).p_value});
      }
    }
  }
  std::fputs(table.to_ascii().c_str(), stdout);
  std::printf("\nCLTune's published finding — SA and PSO beat RS, with the winner\n"
              "depending on the benchmark — can now be checked against MWU p-values\n"
              "(alpha = 0.01) instead of point estimates alone.\n");
  const std::string out_dir = cli.get("out");
  if (!out_dir.empty() &&
      !table.write_csv_file(out_dir + "/ablation_cltune_baselines.csv")) {
    log_error("failed to write {}/ablation_cltune_baselines.csv", out_dir);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return repro::run_cli(argc, argv, run); }
