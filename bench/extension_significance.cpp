// Extension: family-wise-corrected significance analysis. The paper runs
// one Mann-Whitney U test per heatmap cell at alpha = 0.01 without
// correcting for the number of simultaneous comparisons (45 cells per
// figure), a standard critique of heatmap studies (cf. Arcuri & Briand's
// guide the paper cites). This bench produces the complete pairwise
// algorithm-vs-algorithm MWU matrix per (panel, size) cell, applies the
// Holm-Bonferroni step-down correction across the whole family, and
// reports which of the raw rejections survive. It also runs the paired
// Wilcoxon signed-rank test across panels ("does algorithm A beat B when
// paired by workload?") — the analysis Table I credits Akiba et al. with.
//
//   ./extension_significance [--scale 32] [--bench ...] [--arch ...]
//   ./extension_significance --from-raw outcomes.csv

#include <cmath>
#include <cstdio>
#include <vector>

#include "common/cli.hpp"
#include "common/log.hpp"
#include "common/fmt.hpp"
#include "common/table.hpp"
#include "harness/aggregate.hpp"
#include "harness/results_io.hpp"
#include "harness/study.hpp"
#include "stats/mann_whitney.hpp"
#include "stats/paired.hpp"
#include "tuner/registry.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace repro;
  CliParser cli("extension_significance",
                "pairwise MWU matrix with Holm-Bonferroni correction");
  cli.add_option("bench", "comma list of benchmarks", "harris,mandelbrot");
  cli.add_option("arch", "comma list of architectures", "titanv");
  cli.add_option("scale", "experiment-count divisor", "16");
  cli.add_option("from-raw", "aggregate a saved raw outcomes CSV instead", "");
  cli.add_option("alpha", "family-wise significance level", "0.01");
  cli.add_option("out", "directory for CSV artifacts", "");
  if (!cli.parse(argc, argv)) return 0;
  const double alpha = cli.get_double("alpha");

  harness::StudyResults results;
  if (!cli.get("from-raw").empty()) {
    results = harness::load_results_csv(cli.get("from-raw"));
  } else {
    harness::StudyConfig config;
    auto split = [](const std::string& csv) {
      std::vector<std::string> out;
      std::string token;
      for (char c : csv + ",") {
        if (c == ',') {
          if (!token.empty()) out.push_back(token);
          token.clear();
        } else {
          token += c;
        }
      }
      return out;
    };
    config.benchmarks = split(cli.get("bench"));
    config.architectures = split(cli.get("arch"));
    config.scale_divisor = cli.get_double("scale");
    config.min_experiments = 8;  // enough experiments for the tests to bite
    results = harness::run_study(config);
  }

  const auto& algorithms = results.config.algorithms;
  const auto& sizes = results.config.sample_sizes;

  // Collect every pairwise hypothesis in the family.
  struct Hypothesis {
    std::string panel;
    std::size_t size;
    std::size_t a, b;  // algorithm indices, a beats b claimed
    double p_raw;
  };
  std::vector<Hypothesis> family;
  for (const harness::PanelResults& panel : results.panels) {
    for (std::size_t s = 0; s < sizes.size(); ++s) {
      for (std::size_t a = 0; a < algorithms.size(); ++a) {
        for (std::size_t b = a + 1; b < algorithms.size(); ++b) {
          const auto xs = harness::valid_outcomes(panel.cells[a][s]);
          const auto ys = harness::valid_outcomes(panel.cells[b][s]);
          if (xs.empty() || ys.empty()) continue;
          const double p = stats::mann_whitney_u(xs, ys).p_value;
          family.push_back({panel.benchmark + "/" + panel.architecture, sizes[s],
                            a, b, p});
        }
      }
    }
  }
  std::vector<double> raw_ps;
  raw_ps.reserve(family.size());
  for (const Hypothesis& h : family) raw_ps.push_back(h.p_raw);
  const std::vector<double> adjusted = stats::holm_bonferroni(raw_ps);

  std::size_t raw_rejections = 0;
  std::size_t corrected_rejections = 0;
  Table table({"panel", "sample_size", "pair", "p_raw", "p_holm", "significant"});
  table.set_precision(5);
  for (std::size_t i = 0; i < family.size(); ++i) {
    const Hypothesis& h = family[i];
    const bool raw_significant = h.p_raw < alpha;
    const bool corrected_significant = adjusted[i] <= alpha;
    raw_rejections += raw_significant;
    corrected_rejections += corrected_significant;
    if (raw_significant) {
      table.add_row({h.panel, static_cast<long long>(h.size),
                     tuner::display_name(algorithms[h.a]) + " vs " +
                         tuner::display_name(algorithms[h.b]),
                     h.p_raw, adjusted[i],
                     std::string(corrected_significant ? "yes" : "LOST")});
    }
  }
  std::printf("pairwise MWU family: %zu hypotheses across %zu panels x %zu sizes\n",
              family.size(), results.panels.size(), sizes.size());
  std::printf("raw rejections at alpha=%.3g: %zu; surviving Holm correction: %zu\n\n",
              alpha, raw_rejections, corrected_rejections);
  std::fputs(table.to_ascii().c_str(), stdout);

  // Paired view across panels: per algorithm pair, Wilcoxon signed-rank on
  // the per-(panel, size) Fig. 2 medians.
  std::printf("\npaired Wilcoxon signed-rank across (panel, size) blocks "
              "(percent-of-optimum medians):\n");
  std::vector<std::vector<double>> blocks;  // [cell][algorithm]
  for (const harness::PanelResults& panel : results.panels) {
    const harness::CellMatrix matrix = harness::percent_of_optimum(panel);
    for (std::size_t s = 0; s < sizes.size(); ++s) {
      std::vector<double> block;
      bool complete = true;
      for (std::size_t a = 0; a < algorithms.size(); ++a) {
        if (std::isnan(matrix[a][s])) complete = false;
        block.push_back(matrix[a][s]);
      }
      if (complete) blocks.push_back(std::move(block));
    }
  }
  for (std::size_t a = 0; a < algorithms.size(); ++a) {
    for (std::size_t b = a + 1; b < algorithms.size(); ++b) {
      std::vector<double> xs, ys;
      for (const auto& block : blocks) {
        xs.push_back(block[a]);
        ys.push_back(block[b]);
      }
      const auto result = stats::wilcoxon_signed_rank(xs, ys);
      std::printf("  %-7s vs %-7s: W = %6.1f over %2zu blocks, p = %.4g%s\n",
                  tuner::display_name(algorithms[a]).c_str(),
                  tuner::display_name(algorithms[b]).c_str(), result.w,
                  result.n_effective, result.p_value,
                  result.p_value < alpha ? "  **" : "");
    }
  }
  const std::string out_dir = cli.get("out");
  if (!out_dir.empty() &&
      !table.write_csv_file(out_dir + "/extension_significance.csv")) {
    log_error("failed to write {}/extension_significance.csv", out_dir);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return repro::run_cli(argc, argv, run); }
