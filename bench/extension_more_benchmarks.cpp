// Extension: the "wider range of benchmarks" the paper lists as current
// work (Section VIII-A). Runs the Fig. 2 protocol on the four extended-
// suite kernels (convolution, sobel, transpose, and the two-pass separable
// convolution pipeline) and then applies a
// Friedman test across all panels to ask the paper's implicit question
// formally: do the algorithms rank consistently across workloads?
//
//   ./extension_more_benchmarks [--arch titanv] [--scale 32]

#include <cmath>
#include <cstdio>
#include <vector>

#include "common/cli.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "harness/report.hpp"
#include "harness/study.hpp"
#include "stats/nonparametric.hpp"
#include "tuner/registry.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace repro;
  CliParser cli("extension_more_benchmarks",
                "Fig. 2 protocol on convolution/sobel/transpose + Friedman test");
  cli.add_option("arch", "comma list of architectures", "titanv");
  cli.add_option("scale", "experiment-count divisor", "32");
  cli.add_option("out", "directory for CSV artifacts", "");
  if (!cli.parse(argc, argv)) return 0;

  harness::StudyConfig config;
  config.benchmarks = {"convolution", "sobel", "transpose", "separable"};
  config.architectures.clear();
  {
    std::string token;
    for (char c : cli.get("arch") + ",") {
      if (c == ',') {
        if (!token.empty()) config.architectures.push_back(token);
        token.clear();
      } else {
        token += c;
      }
    }
  }
  config.scale_divisor = cli.get_double("scale");
  const harness::StudyResults results = harness::run_study(config);

  const harness::FigureOutput fig = harness::make_fig2(results);
  std::fputs(fig.text.c_str(), stdout);

  // Friedman across panels: blocks = (panel, size) cells, treatments =
  // algorithms, values = percent of optimum (higher is better, so we rank
  // the negated values to keep "rank 1 = best").
  std::vector<std::vector<double>> blocks;
  for (const harness::PanelResults& panel : results.panels) {
    const harness::CellMatrix matrix = harness::percent_of_optimum(panel);
    for (std::size_t s = 0; s < results.config.sample_sizes.size(); ++s) {
      std::vector<double> block;
      bool complete = true;
      for (std::size_t a = 0; a < results.config.algorithms.size(); ++a) {
        if (std::isnan(matrix[a][s])) complete = false;
        block.push_back(-matrix[a][s]);
      }
      if (complete) blocks.push_back(std::move(block));
    }
  }
  const stats::FriedmanResult friedman = stats::friedman(blocks);
  std::printf("Friedman test across %zu (panel, size) blocks: chi2 = %.2f, "
              "p = %.4g (dof %u)\n",
              blocks.size(), friedman.chi2, friedman.p_value, friedman.dof);
  std::printf("mean ranks (1 = best): ");
  for (std::size_t a = 0; a < results.config.algorithms.size(); ++a) {
    std::printf("%s %.2f  ", tuner::display_name(results.config.algorithms[a]).c_str(),
                friedman.mean_ranks[a]);
  }
  std::printf("\n=> %s at alpha = 0.01: the algorithms do%s rank consistently "
              "across the extended workloads.\n",
              friedman.p_value < 0.01 ? "significant" : "not significant",
              friedman.p_value < 0.01 ? "" : " not provably");

  const std::string out_dir = cli.get("out");
  if (!out_dir.empty() &&
      !fig.table.write_csv_file(out_dir + "/extension_more_benchmarks.csv")) {
    log_error("failed to write {}/extension_more_benchmarks.csv", out_dir);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return repro::run_cli(argc, argv, run); }
