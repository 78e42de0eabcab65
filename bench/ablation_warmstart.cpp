// Ablation: cross-tenant warm start from the transfer store.
//
// The paper's protocol starts every search cold. With a persistent results
// store a daemon can seed the model-based algorithms (BO GP, BO TPE, RF)
// from a tenant's prior history instead. This bench measures what that buys:
// cold vs warm median percent-of-optimum at the paper's sample sizes
// S ∈ {25, 50, 100, 200, 400}.
//
// The prior is built through a real ResultsStore, exactly the daemon's path:
// a donor random-search campaign on the same (benchmark, arch, space) tenant
// appends its observations, and each warm run consumes a store query — so
// dedup, insertion order and the query row cap all behave as in production.
//
//   ./ablation_warmstart [--bench mandelbrot] [--arch titanv] [--repeats 11]
//                        [--donor-samples 400] [--out DIR]

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/fmt.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "harness/context.hpp"
#include "stats/descriptive.hpp"
#include "store/fingerprint.hpp"
#include "store/results_store.hpp"
#include "tuner/registry.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace repro;
  CliParser cli("ablation_warmstart", "cold vs warm-started search sweep");
  cli.add_option("bench", "benchmark", "mandelbrot");
  cli.add_option("arch", "architecture", "titanv");
  cli.add_option("repeats", "experiments per cell", "11");
  cli.add_option("donor-samples", "random donor observations in the store", "400");
  cli.add_option("out", "directory for CSV artifacts", "");
  if (!cli.parse(argc, argv)) return 0;

  harness::BenchmarkContext context(imagecl::benchmark_by_name(cli.get("bench")),
                                    simgpu::arch_by_name(cli.get("arch")), 0, 424242);
  const auto repeats = static_cast<std::size_t>(cli.get_int("repeats"));
  const auto donor_samples = static_cast<std::size_t>(cli.get_int("donor-samples"));
  const std::vector<std::string> algorithms = {"bogp", "botpe", "rf"};
  const std::vector<std::size_t> sizes = {25, 50, 100, 200, 400};

  // Donor campaign: one tenant's history, appended through the store so the
  // warm prior reflects dedup and insertion order, not a raw sample list.
  store::ResultsStore donor_store(store::StoreOptions{});
  donor_store.load();
  const store::StoreKey tenant{cli.get("bench"), cli.get("arch"),
                               store::space_fingerprint(context.space().params(),
                                                        "wg256")};
  {
    Rng donor_rng(seed_combine(9001, 0));
    const tuner::Objective donor_objective = context.make_objective(donor_rng);
    for (std::size_t i = 0; i < donor_samples; ++i) {
      const tuner::Configuration config =
          context.space().sample_executable(donor_rng);
      const tuner::Evaluation eval = donor_objective(config);
      (void)donor_store.append(tenant, config, eval.value, eval.valid);
    }
  }
  const std::vector<store::StoreRecord> rows = donor_store.query(tenant, 512);
  auto snapshot = std::make_shared<tuner::PriorHistory>();
  snapshot->reserve(rows.size());
  for (const store::StoreRecord& row : rows) {
    snapshot->push_back(tuner::PriorObservation{row.config, row.value, row.valid});
  }
  const tuner::PriorHandle prior = snapshot;

  std::printf("warm-start ablation: %s on %s (optimum %.1f us)\n"
              "store prior: %zu rows from %zu donor samples (%zu duplicates)\n\n",
              cli.get("bench").c_str(), cli.get("arch").c_str(),
              context.optimum_us(), rows.size(), donor_samples,
              static_cast<std::size_t>(donor_store.stats().duplicates));

  Table table({"algorithm", "budget", "cold_median_pct", "warm_median_pct",
               "delta_pp"});
  table.set_precision(2);
  std::vector<std::string> row_labels;
  std::vector<std::vector<double>> delta(algorithms.size(),
                                         std::vector<double>(sizes.size()));
  for (std::size_t a = 0; a < algorithms.size(); ++a) {
    row_labels.push_back(algorithms[a] + " warm-cold");
    for (std::size_t s = 0; s < sizes.size(); ++s) {
      std::vector<double> cold_pct;
      std::vector<double> warm_pct;
      for (std::size_t r = 0; r < repeats; ++r) {
        // Same seed for the cold and warm arm of a repeat: the prior is the
        // only difference between the two trajectories.
        for (const bool warm : {false, true}) {
          Rng rng(seed_combine(7000 + a * 100 + s, r));
          tuner::Evaluator evaluator(context.space(), context.make_objective(rng),
                                     sizes[s]);
          const std::unique_ptr<tuner::SearchAlgorithm> algorithm =
              warm ? tuner::make_algorithm(algorithms[a], prior)
                   : tuner::make_algorithm(algorithms[a]);
          const tuner::TuneResult result =
              algorithm->minimize(context.space(), evaluator, rng);
          if (!result.found_valid) continue;
          const double final_us =
              context.measure_repeated_us(result.best_config, rng, 10);
          (warm ? warm_pct : cold_pct)
              .push_back(context.optimum_us() / final_us * 100.0);
        }
      }
      const double cold = stats::median(cold_pct);
      const double hot = stats::median(warm_pct);
      delta[a][s] = hot - cold;
      table.add_row({algorithms[a], static_cast<long long>(sizes[s]), cold, hot,
                     delta[a][s]});
    }
  }
  std::vector<std::string> size_labels;
  for (std::size_t size : sizes) size_labels.push_back(std::to_string(size));
  std::fputs(render_heatmap("warm − cold median %-of-optimum (pp)", row_labels,
                            size_labels, delta, 1)
                 .c_str(),
             stdout);
  const std::string out_dir = cli.get("out");
  if (!out_dir.empty() &&
      !table.write_csv_file(out_dir + "/ablation_warmstart.csv")) {
    log_error("failed to write {}/ablation_warmstart.csv", out_dir);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return repro::run_cli(argc, argv, run); }
