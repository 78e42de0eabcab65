// Extension: convergence trajectories. The paper reports only the final
// configuration per budget; this bench records best-so-far-vs-samples
// curves (mean over repeats) for each algorithm on one panel, the view
// that explains *when* each algorithm earns its budget. Implemented purely
// by wrapping the objective — cached duplicate proposals never reach the
// objective, so the wrapper sees exactly the budget-consuming evaluations.
//
//   ./extension_convergence [--bench harris] [--arch titanv] [--budget 200]

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "common/cli.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "harness/context.hpp"
#include "tuner/registry.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace repro;
  CliParser cli("extension_convergence", "best-so-far trajectories per algorithm");
  cli.add_option("bench", "benchmark", "harris");
  cli.add_option("arch", "architecture", "titanv");
  cli.add_option("budget", "sample budget", "200");
  cli.add_option("repeats", "runs averaged per algorithm", "9");
  cli.add_option("algo", "comma list of algorithms", "rs,rf,ga,bogp,botpe");
  cli.add_option("out", "directory for CSV artifacts", "");
  if (!cli.parse(argc, argv)) return 0;

  harness::BenchmarkContext context(imagecl::benchmark_by_name(cli.get("bench")),
                                    simgpu::arch_by_name(cli.get("arch")), 0, 60607);
  const auto budget = static_cast<std::size_t>(cli.get_int("budget"));
  const auto repeats = static_cast<std::size_t>(cli.get_int("repeats"));

  std::vector<std::string> algorithms;
  {
    std::string token;
    for (char c : cli.get("algo") + ",") {
      if (c == ',') {
        if (!token.empty()) algorithms.push_back(token);
        token.clear();
      } else {
        token += c;
      }
    }
  }

  std::printf("convergence on %s/%s, budget %zu, %zu runs per algorithm "
              "(optimum %.1f us)\n\n",
              cli.get("bench").c_str(), cli.get("arch").c_str(), budget, repeats,
              context.optimum_us());

  // mean_curves[a][i] = mean over runs of (best true runtime after i+1
  // budget-consuming evaluations), as % of optimum.
  std::vector<std::vector<double>> mean_curves(
      algorithms.size(), std::vector<double>(budget, 0.0));
  for (std::size_t a = 0; a < algorithms.size(); ++a) {
    for (std::size_t r = 0; r < repeats; ++r) {
      Rng rng(seed_combine(seed_from_string(algorithms[a]), r));
      Rng measure_rng = rng.split();
      std::vector<double> best_so_far;
      best_so_far.reserve(budget);
      double best = std::numeric_limits<double>::infinity();
      tuner::Objective objective = [&](const tuner::Configuration& config) {
        tuner::Evaluation eval;
        eval.value = context.measure_us(config, measure_rng);
        eval.valid = !std::isnan(eval.value);
        // Track best by the *true* time of the proposed config so the curve
        // reflects search quality, not measurement luck.
        const double truth = context.true_time_us(config);
        if (!std::isnan(truth)) best = std::min(best, truth);
        best_so_far.push_back(best);
        return eval;
      };
      tuner::Evaluator evaluator(context.space(), objective, budget);
      const auto algorithm = tuner::make_algorithm(algorithms[a]);
      (void)algorithm->minimize(context.space(), evaluator, rng);
      best_so_far.resize(budget, best_so_far.empty() ? 0.0 : best_so_far.back());
      for (std::size_t i = 0; i < budget; ++i) {
        const double percent = std::isfinite(best_so_far[i])
                                   ? context.optimum_us() / best_so_far[i] * 100.0
                                   : 0.0;
        mean_curves[a][i] += percent / static_cast<double>(repeats);
      }
    }
  }

  // Downsample to checkpoints for the chart and CSV.
  const std::vector<std::size_t> checkpoints = [&] {
    std::vector<std::size_t> points;
    for (std::size_t p = 10; p <= budget; p += std::max<std::size_t>(budget / 8, 1)) {
      points.push_back(std::min(p, budget));
    }
    if (points.empty() || points.back() != budget) points.push_back(budget);
    return points;
  }();

  Table table({"algorithm", "samples", "mean_best_pct_of_optimum"});
  table.set_precision(2);
  std::vector<std::string> x_labels;
  std::vector<std::vector<double>> series(algorithms.size());
  std::vector<std::string> names;
  for (std::size_t a = 0; a < algorithms.size(); ++a) {
    names.push_back(tuner::display_name(algorithms[a]));
    for (std::size_t p : checkpoints) {
      const double value = mean_curves[a][p - 1];
      series[a].push_back(value);
      table.add_row({names[a], static_cast<long long>(p), value});
    }
  }
  for (std::size_t p : checkpoints) x_labels.push_back(std::to_string(p));

  std::fputs(render_line_chart("mean best-so-far (% of optimum) vs samples",
                               x_labels, names, series)
                 .c_str(),
             stdout);
  const std::string out_dir = cli.get("out");
  if (!out_dir.empty() &&
      !table.write_csv_file(out_dir + "/extension_convergence.csv")) {
    log_error("failed to write {}/extension_convergence.csv", out_dir);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return repro::run_cli(argc, argv, run); }
