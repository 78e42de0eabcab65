#include "harness/figures.hpp"

#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "common/cli.hpp"
#include "common/fmt.hpp"
#include "common/log.hpp"
#include "harness/results_io.hpp"

namespace repro::harness {
namespace {

// Raw-results round-trip paths parsed from the CLI (empty = unused).
std::string g_save_raw;
std::string g_from_raw;

/// A count flag's value: a whole number no smaller than `min`.
std::size_t parse_count(const std::string& flag, const std::string& text, long long min) {
  const long long value = repro::parse_int_flag(flag, text);
  if (value < min) {
    throw std::invalid_argument(
        fmt("--{}: expected a whole number >= {}, got '{}'", flag, min, text));
  }
  return static_cast<std::size_t>(value);
}

const char* figure_name(Figure figure) {
  switch (figure) {
    case Figure::kFig2: return "fig2";
    case Figure::kFig3: return "fig3";
    case Figure::kFig4a: return "fig4a";
    case Figure::kFig4b: return "fig4b";
  }
  return "fig";
}

}  // namespace

bool parse_study_cli(int argc, const char* const* argv, const std::string& program,
                     const std::string& description, StudyConfig& config,
                     std::string& out_dir) {
  repro::CliParser cli(program, description);
  cli.add_option("scale", "divide the paper's experiment counts by this", "32");
  cli.add_flag("full", "paper-scale experiment counts (scale = 1)");
  cli.add_option("bench", "comma list of benchmarks", "add,harris,mandelbrot");
  cli.add_option("arch", "comma list of architectures", "gtx980,titanv,rtxtitan");
  cli.add_option("algo", "comma list of algorithms", "rs,rf,ga,bogp,botpe");
  cli.add_option("sizes", "comma list of sample sizes", "25,50,100,200,400");
  cli.add_option("seed", "master seed", "1592653589");
  cli.add_option("min-experiments", "floor on experiments per cell", "4");
  cli.add_option("out", "directory for CSV artifacts", "");
  cli.add_option("save-raw", "write raw per-experiment outcomes to this CSV", "");
  cli.add_option("from-raw", "skip the study; aggregate a saved raw CSV", "");
  cli.add_option("resume",
                 "checkpoint file: append per-cell records while running and "
                 "resume from it if it exists",
                 "");
  cli.add_flag("verbose", "debug logging");
  if (!cli.parse(argc, argv)) return false;

  config = StudyConfig{};
  config.scale_divisor = cli.get_flag("full") ? 1.0 : cli.get_double("scale");
  config.benchmarks = split_list(cli.get("bench"));
  config.architectures = split_list(cli.get("arch"));
  config.algorithms = split_list(cli.get("algo"));
  config.sample_sizes.clear();
  for (const std::string& size : split_list(cli.get("sizes"))) {
    config.sample_sizes.push_back(parse_count("sizes", size, 1));
  }
  config.master_seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  config.min_experiments = parse_count("min-experiments", cli.get("min-experiments"), 0);
  config.checkpoint_path = cli.get("resume");
  out_dir = cli.get("out");
  g_save_raw = cli.get("save-raw");
  g_from_raw = cli.get("from-raw");
  if (cli.get_flag("verbose")) repro::set_log_level(repro::LogLevel::kDebug);
  return true;
}

int run_figure_main(int argc, const char* const* argv, Figure figure) {
  StudyConfig config;
  std::string out_dir;
  const std::string name = figure_name(figure);
  try {
    if (!parse_study_cli(argc, argv, name,
                         fmt("reproduce the paper's {} from the simulated study", name),
                         config, out_dir)) {
      return 0;
    }
  } catch (const std::invalid_argument& error) {
    log_error("{}", error.what());
    return 1;
  }

  StudyResults results;
  try {
    results = g_from_raw.empty() ? run_study(config) : load_results_csv(g_from_raw);
  } catch (const std::exception& error) {
    // Checkpoint/raw-file mismatches are user-facing errors, not crashes.
    log_error("{}", error.what());
    return 1;
  }
  if (!g_save_raw.empty()) {
    // A failed save must fail the run: a full-day campaign silently dropping
    // its raw outcomes is unrecoverable.
    if (!save_results_csv(results, g_save_raw)) {
      log_error("failed to write raw outcomes to {}", g_save_raw);
      return 1;
    }
    std::printf("wrote raw outcomes to %s\n", g_save_raw.c_str());
  }
  FigureOutput output = [&] {
    switch (figure) {
      case Figure::kFig2: return make_fig2(results);
      case Figure::kFig3: return make_fig3(results);
      case Figure::kFig4a: return make_fig4a(results);
      case Figure::kFig4b: return make_fig4b(results);
    }
    return make_fig2(results);
  }();

  std::fputs(output.text.c_str(), stdout);
  // Only a campaign the fault layer touched gets the extra section, so
  // fault-free runs stay byte-identical to the pre-fault output.
  bool any_failures = false;
  for (const PanelResults& panel : results.panels) {
    for (const auto& row : panel.cells) {
      for (const CellOutcomes& cell : row) {
        any_failures |= cell.failures.any() || cell.failed_experiments > 0;
      }
    }
  }
  if (any_failures) std::fputs(make_failure_report(results).text.c_str(), stdout);
  if (!out_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    const std::string path = out_dir + "/" + name + ".csv";
    if (!output.table.write_csv_file(path)) {
      log_error("failed to write {}", path);
      return 1;
    }
    std::printf("wrote %s\n", path.c_str());
  }
  return 0;
}

}  // namespace repro::harness
