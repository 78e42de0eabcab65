// Mini-study: compare all eight implemented search algorithms (the paper's
// five plus the CLTune baselines SA/PSO and the OpenTuner-style AUC
// bandit) on one benchmark/architecture
// pair across several sample budgets, with repeats, medians, and
// Mann-Whitney significance vs Random Search — a compact version of the
// paper's whole pipeline driven purely through the public API.
//
//   ./compare_algorithms [--bench harris] [--arch titanv] [--repeats 9]

#include <cstdio>
#include <vector>

#include "common/cli.hpp"
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
  CliParser cli("compare_algorithms", "compare all search algorithms head to head");
  cli.add_option("bench", "benchmark (add|harris|mandelbrot)", "harris");
  cli.add_option("arch", "architecture (gtx980|titanv|rtxtitan)", "titanv");
  cli.add_option("repeats", "experiments per cell", "9");
  cli.add_option("sizes", "comma list of budgets", "25,100,400");
  if (!cli.parse(argc, argv)) return 0;
  std::vector<std::size_t> sizes;
  for (const std::string& size : split_list(cli.get("sizes"))) {
    sizes.push_back(static_cast<std::size_t>(parse_int_flag("sizes", size)));
  }
  const auto repeats = static_cast<std::size_t>(cli.get_int("repeats"));

  harness::BenchmarkContext context(imagecl::benchmark_by_name(cli.get("bench")),
                                    simgpu::arch_by_name(cli.get("arch")), 0, 1234);
  std::printf("%s on %s — optimum %.1f us\n\n", cli.get("bench").c_str(),
              cli.get("arch").c_str(), context.optimum_us());

  // Collect outcome distributions per (algorithm, size).
  std::vector<std::vector<std::vector<double>>> outcomes(
      tuner::all_algorithms().size(), std::vector<std::vector<double>>(sizes.size()));
  for (std::size_t a = 0; a < tuner::all_algorithms().size(); ++a) {
    const std::string& id = tuner::all_algorithms()[a];
    for (std::size_t s = 0; s < sizes.size(); ++s) {
      for (std::size_t r = 0; r < repeats; ++r) {
        Rng rng(seed_combine(seed_from_string(id), sizes[s] * 1000 + r));
        tuner::Evaluator evaluator(context.space(), context.make_objective(rng),
                                   sizes[s]);
        const auto algorithm = tuner::make_algorithm(id);
        const tuner::TuneResult result =
            algorithm->minimize(context.space(), evaluator, rng);
        if (result.found_valid) {
          outcomes[a][s].push_back(
              context.measure_repeated_us(result.best_config, rng, 10));
        }
      }
    }
  }

  const std::size_t rs_index = 0;  // all_algorithms() starts with "rs"
  Table table({"algorithm", "budget", "median_us", "pct_of_optimum",
               "speedup_vs_rs", "cles_vs_rs", "mwu_p"});
  table.set_precision(3);
  for (std::size_t a = 0; a < tuner::all_algorithms().size(); ++a) {
    for (std::size_t s = 0; s < sizes.size(); ++s) {
      if (outcomes[a][s].empty()) continue;
      const double median = stats::median(outcomes[a][s]);
      const double rs_median = stats::median(outcomes[rs_index][s]);
      const double p =
          a == rs_index
              ? 1.0
              : stats::mann_whitney_u(outcomes[a][s], outcomes[rs_index][s]).p_value;
      table.add_row({tuner::display_name(tuner::all_algorithms()[a]),
                     static_cast<long long>(sizes[s]), median,
                     context.optimum_us() / median * 100.0, rs_median / median,
                     a == rs_index ? 0.5
                                   : stats::cles_less(outcomes[a][s], outcomes[rs_index][s]),
                     p});
    }
  }
  std::fputs(table.to_ascii().c_str(), stdout);
  std::printf("\n(cles_vs_rs: probability the algorithm beats RS on a random pair;\n"
              " mwu_p: two-sided Mann-Whitney U p-value vs RS, alpha = 0.01)\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return repro::run_cli(argc, argv, run); }
