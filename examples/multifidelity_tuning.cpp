// Multi-fidelity autotuning with BOHB: tune the Harris kernel using scaled-
// down proxy problems (a quarter-size image costs a quarter of a full
// measurement) and compare what the same total cost buys a single-fidelity
// tuner. Demonstrates the FidelityEvaluator / MultiFidelitySearch API from
// the paper's future-work extension.
//
//   ./multifidelity_tuning [--bench harris] [--budget 60]

#include <cstdio>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "harness/multifidelity_context.hpp"
#include "tuner/multifidelity/hyperband.hpp"
#include "tuner/registry.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace repro;
  CliParser cli("multifidelity_tuning", "BOHB over problem-size fidelities");
  cli.add_option("bench", "benchmark", "harris");
  cli.add_option("budget", "total cost in full-evaluation units", "60");
  if (!cli.parse(argc, argv)) return 0;
  const double budget = cli.get_double("budget");

  // Fidelity levels: 1/27, 1/9 and 1/3 of the full problem's elements.
  harness::MultiFidelityContext context(cli.get("bench"),
                                        simgpu::arch_by_name("titanv"),
                                        {1.0 / 27.0, 1.0 / 9.0, 1.0 / 3.0}, 99);
  const harness::BenchmarkContext& full = context.full();
  std::printf("%s on Titan V (simulated), optimum %.1f us, budget %.0f units\n\n",
              cli.get("bench").c_str(), full.optimum_us(), budget);

  // BOHB: successive-halving brackets + TPE-guided sampling.
  {
    Rng rng(1);
    tuner::FidelityEvaluator evaluator(full.space(), context.make_objective(rng),
                                       budget);
    tuner::Bohb bohb;
    const tuner::FidelityTuneResult result =
        bohb.minimize(full.space(), evaluator, rng);
    if (result.found_valid) {
      std::printf("BOHB:   %zu evaluations across fidelities for %.1f units;\n"
                  "        best full-fidelity config reaches %.1f%% of optimum\n",
                  result.evaluations, result.units_used,
                  full.optimum_us() / full.true_time_us(result.best_config) * 100.0);
    }
  }

  // Same cost spent on full-fidelity BO TPE.
  {
    Rng rng(2);
    tuner::Evaluator evaluator(full.space(), full.make_objective(rng),
                               static_cast<std::size_t>(budget));
    const auto tpe = tuner::make_algorithm("botpe");
    const tuner::TuneResult result = tpe->minimize(full.space(), evaluator, rng);
    if (result.found_valid) {
      std::printf("BO TPE: %zu full evaluations;\n"
                  "        best config reaches %.1f%% of optimum\n",
                  result.evaluations_used,
                  full.optimum_us() / full.true_time_us(result.best_config) * 100.0);
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return repro::run_cli(argc, argv, run); }
