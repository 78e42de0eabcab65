// Regenerates the Tørring row of the paper's Table I (experimental-design
// survey) and verifies the total-sample accounting of footnote 1:
//
//   "3 SMBO algorithms, [25, 50, 100, 200, 400] samples per algorithm,
//    [800, 400, 200, 100, 50] experiments + RS/RF Samples and RF
//    predictions for 3 benchmarks on 3 architectures"
//
// which evaluates to (3 x 100,000 + 20,000 + 15,500) x 9 = 3,019,500.
// The same arithmetic is computed from the StudyConfig so any change to the
// protocol shows up here.

#include <cstdio>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "harness/study.hpp"

namespace {

int run(int argc, char** argv) {
  repro::CliParser cli("table1_design_row",
                       "print the paper's Table I row and sample accounting");
  cli.add_option("scale", "experiment-count divisor (1 = paper scale)", "1");
  if (!cli.parse(argc, argv)) return 0;

  repro::harness::StudyConfig config;
  config.algorithms = {"rs", "rf", "ga", "bogp", "botpe"};
  config.scale_divisor = cli.get_double("scale");
  config.min_experiments = 1;

  const std::size_t pairs = config.benchmarks.size() * config.architectures.size();
  const std::size_t smbo_algorithms = 3;  // GA, BO GP, BO TPE (paper footnote 1)

  std::size_t smbo_samples_per_pair = 0;
  std::size_t rf_predictions_per_pair = 0;
  std::size_t experiments_min = ~std::size_t{0};
  std::size_t experiments_max = 0;
  for (std::size_t size : config.sample_sizes) {
    const std::size_t experiments = config.experiments_for(size);
    experiments_min = std::min(experiments_min, experiments);
    experiments_max = std::max(experiments_max, experiments);
    smbo_samples_per_pair += experiments * size;
    rf_predictions_per_pair += experiments * 10;  // top-10 prediction runs
  }
  smbo_samples_per_pair *= smbo_algorithms;
  const std::size_t dataset_per_pair = config.dataset_size_needed();
  const std::size_t total =
      (smbo_samples_per_pair + dataset_per_pair + rf_predictions_per_pair) * pairs;

  std::printf("Table I (Tørring row):\n");
  repro::Table row({"Author", "Samples", "Experiments", "Evaluations",
                    "Significance test", "Research field", "Algorithms"});
  row.add_row({std::string("Tørring"),
               std::to_string(config.sample_sizes.front()) + "-" +
                   std::to_string(config.sample_sizes.back()),
               std::to_string(experiments_max) + "-" + std::to_string(experiments_min),
               static_cast<long long>(config.final_evaluations),
               std::string("Mann-Whitney U"), std::string("Autotuning"),
               std::string("RS, BO TPE, BO GP, RF, GA")});
  std::fputs(row.to_ascii().c_str(), stdout);

  std::printf("\nFootnote 1 sample accounting (scale %.0f):\n", config.scale_divisor);
  std::printf("  SMBO samples per (benchmark, architecture):     %zu\n",
              smbo_samples_per_pair);
  std::printf("  RS/RF dataset per (benchmark, architecture):    %zu\n", dataset_per_pair);
  std::printf("  RF prediction runs per (benchmark, architecture): %zu\n",
              rf_predictions_per_pair);
  std::printf("  benchmark x architecture pairs:                 %zu\n", pairs);
  std::printf("  TOTAL samples:                                  %zu\n", total);
  if (config.scale_divisor == 1.0) {
    std::printf("  paper footnote 1 reports:                       3019500  -> %s\n",
                total == 3019500 ? "MATCH" : "MISMATCH");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return repro::run_cli(argc, argv, run); }
