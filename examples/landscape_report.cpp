// Landscape diagnostics: what does a tuning search space actually look
// like? Samples the executable sub-space of each benchmark on one
// architecture and reports runtime quantiles (relative to the true
// optimum), the invalid fraction of the full space, and the best known
// configuration — the numbers that explain *why* the sample-size study
// behaves the way it does.
//
//   ./landscape_report [--arch titanv] [--samples 20000]

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "harness/context.hpp"
#include "imagecl/benchmark_suite.hpp"
#include "stats/descriptive.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace repro;
  CliParser cli("landscape_report", "search-space statistics per benchmark");
  cli.add_option("arch", "architecture", "titanv");
  cli.add_option("samples", "executable configurations to sample", "20000");
  cli.add_flag("extended", "include convolution/sobel/transpose");
  if (!cli.parse(argc, argv)) return 0;
  const auto samples = static_cast<std::size_t>(cli.get_int("samples"));
  const auto& arch = simgpu::arch_by_name(cli.get("arch"));

  Table table({"benchmark", "optimum_us", "q01", "q10", "median", "q90", "max",
               "best_of_25", "best_config"});
  table.set_precision(2);

  const auto& benchmarks =
      cli.get_flag("extended") ? imagecl::extended_suite() : imagecl::suite();
  for (const auto& benchmark : benchmarks) {
    const harness::BenchmarkContext context(benchmark, arch, 0, 7);
    Rng rng(13);
    std::vector<double> ratios;
    ratios.reserve(samples);
    tuner::Configuration best_config;
    double best = 1e300;
    for (std::size_t i = 0; i < samples; ++i) {
      const tuner::Configuration config = context.space().sample_executable(rng);
      const double time = context.true_time_us(config);
      if (std::isnan(time)) continue;
      ratios.push_back(time / context.optimum_us());
      if (time < best) {
        best = time;
        best_config = config;
      }
    }
    // Expected best-of-25 draw = the 1/25 quantile of the ratio distribution.
    const double best_of_25 = stats::quantile(ratios, 1.0 / 25.0);
    const auto& c = best_config;
    table.add_row({benchmark->name(), context.optimum_us(),
                   stats::quantile(ratios, 0.01), stats::quantile(ratios, 0.10),
                   stats::median(ratios), stats::quantile(ratios, 0.90),
                   stats::max(ratios), best_of_25,
                   std::string("(") + std::to_string(c[0]) + "," + std::to_string(c[1]) +
                       "," + std::to_string(c[2]) + "|" + std::to_string(c[3]) + "," +
                       std::to_string(c[4]) + "," + std::to_string(c[5]) + ")"});
  }
  std::printf("Landscape statistics on %s (%zu executable samples per benchmark;\n"
              "columns q01..max are runtime ratios to the true optimum):\n\n",
              cli.get("arch").c_str(), samples);
  std::fputs(table.to_ascii().c_str(), stdout);
  std::printf("\nReading guide: best_of_25 approximates what Random Search achieves\n"
              "at the paper's smallest sample size; a heavy q90/max tail is what\n"
              "failed searches pay.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return repro::run_cli(argc, argv, run); }
