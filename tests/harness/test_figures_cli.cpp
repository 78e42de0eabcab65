// CLI glue of the figure bench binaries: flag parsing into StudyConfig.

#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/cli.hpp"
#include "harness/figures.hpp"
#include "harness/results_io.hpp"

namespace repro::harness {
namespace {

TEST(FiguresCli, DefaultsMatchThePaperSetAtReducedScale) {
  StudyConfig config;
  std::string out_dir;
  const char* argv[] = {"fig2"};
  ASSERT_TRUE(parse_study_cli(1, argv, "fig2", "test", config, out_dir));
  EXPECT_DOUBLE_EQ(config.scale_divisor, 32.0);
  EXPECT_EQ(config.benchmarks,
            (std::vector<std::string>{"add", "harris", "mandelbrot"}));
  EXPECT_EQ(config.architectures,
            (std::vector<std::string>{"gtx980", "titanv", "rtxtitan"}));
  EXPECT_EQ(config.algorithms,
            (std::vector<std::string>{"rs", "rf", "ga", "bogp", "botpe"}));
  EXPECT_EQ(config.sample_sizes, (std::vector<std::size_t>{25, 50, 100, 200, 400}));
  EXPECT_TRUE(out_dir.empty());
}

TEST(FiguresCli, FullFlagRestoresPaperScale) {
  StudyConfig config;
  std::string out_dir;
  const char* argv[] = {"fig2", "--full"};
  ASSERT_TRUE(parse_study_cli(2, argv, "fig2", "test", config, out_dir));
  EXPECT_DOUBLE_EQ(config.scale_divisor, 1.0);
}

TEST(FiguresCli, FiltersAndSeedParse) {
  StudyConfig config;
  std::string out_dir;
  const char* argv[] = {"fig2",  "--bench", "harris",     "--arch", "titanv,gtx980",
                        "--algo", "rs,ga",  "--sizes",    "25,100", "--seed",
                        "7",      "--out",  "/tmp/somewhere"};
  ASSERT_TRUE(parse_study_cli(13, argv, "fig2", "test", config, out_dir));
  EXPECT_EQ(config.benchmarks, (std::vector<std::string>{"harris"}));
  EXPECT_EQ(config.architectures, (std::vector<std::string>{"titanv", "gtx980"}));
  EXPECT_EQ(config.algorithms, (std::vector<std::string>{"rs", "ga"}));
  EXPECT_EQ(config.sample_sizes, (std::vector<std::size_t>{25, 100}));
  EXPECT_EQ(config.master_seed, 7u);
  EXPECT_EQ(out_dir, "/tmp/somewhere");
}

TEST(FiguresCli, ResumeFlagSetsCheckpointPath) {
  StudyConfig config;
  std::string out_dir;
  const char* argv[] = {"fig2", "--resume", "/tmp/study.ckpt"};
  ASSERT_TRUE(parse_study_cli(3, argv, "fig2", "test", config, out_dir));
  EXPECT_EQ(config.checkpoint_path, "/tmp/study.ckpt");
  // Default: no checkpointing.
  const char* bare[] = {"fig2"};
  ASSERT_TRUE(parse_study_cli(1, bare, "fig2", "test", config, out_dir));
  EXPECT_TRUE(config.checkpoint_path.empty());
}

TEST(FiguresCli, HelpReturnsFalse) {
  StudyConfig config;
  std::string out_dir;
  const char* argv[] = {"fig2", "--help"};
  EXPECT_FALSE(parse_study_cli(2, argv, "fig2", "test", config, out_dir));
}

TEST(FiguresCli, UnknownFlagReturnsFalse) {
  // Only --help returns false (exit 0); a typo throws, so the figure main
  // exits 1 instead of "succeeding" without running.
  StudyConfig config;
  std::string out_dir;
  const char* argv[] = {"fig2", "--bogus"};
  EXPECT_THROW((void)parse_study_cli(2, argv, "fig2", "test", config, out_dir),
               repro::FlagError);
}

TEST(FiguresCli, MalformedNumbersThrowNamingTheFlag) {
  const std::pair<const char*, const char*> cases[] = {
      {"--sizes", "abc"},          {"--sizes", "25,x"}, {"--sizes", "0"},
      {"--sizes", "-5"},           {"--sizes", "25.5"}, {"--seed", "abc"},
      {"--min-experiments", "x"},  {"--min-experiments", "-1"},
      {"--scale", "32abc"}};
  for (const auto& [flag, value] : cases) {
    StudyConfig config;
    std::string out_dir;
    const char* argv[] = {"fig2", flag, value};
    try {
      (void)parse_study_cli(3, argv, "fig2", "test", config, out_dir);
      ADD_FAILURE() << flag << " accepted '" << value << "'";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find(flag), std::string::npos) << error.what();
    }
  }
}

TEST(FiguresCli, FigureMainExitsOneOnUnusableNumbers) {
  // Parse errors and the study's own config checks both end the run with
  // exit status 1 before any context is built.
  const std::pair<const char*, const char*> cases[] = {
      {"--sizes", "abc"}, {"--seed", "abc"}, {"--scale", "32abc"},
      {"--scale", "0"},   {"--scale", "-4"}, {"--scale", "nan"}};
  for (const auto& [flag, value] : cases) {
    const char* argv[] = {"fig2", flag, value};
    EXPECT_EQ(run_figure_main(3, argv, Figure::kFig2), 1) << flag << " " << value;
  }
}

TEST(FiguresCli, Fig4WithoutRandomSearchExitsOneBeforeAnyWork) {
  const std::filesystem::path dir = std::filesystem::temp_directory_path();
  const std::string checkpoint = (dir / "repro_fig4_no_rs.ckpt").string();
  const std::string raw = (dir / "repro_fig4_no_rs.csv").string();
  std::filesystem::remove(checkpoint);
  StudyResults results;
  results.config.benchmarks = {"add"};
  results.config.architectures = {"titanv"};
  results.config.algorithms = {"ga"};
  results.config.sample_sizes = {25};
  PanelResults panel;
  panel.benchmark = "add";
  panel.architecture = "titanv";
  panel.optimum_us = 100.0;
  panel.cells = {{CellOutcomes{}}};
  panel.cells[0][0].final_times_us = {120.0, 130.0};
  results.panels.push_back(std::move(panel));
  ASSERT_TRUE(save_results_csv(results, raw));

  for (const Figure figure : {Figure::kFig4a, Figure::kFig4b}) {
    const char* campaign[] = {"fig4", "--algo",  "ga,bogp", "--bench", "add",
                              "--arch", "titanv", "--sizes", "10",      "--resume",
                              checkpoint.c_str()};
    EXPECT_EQ(run_figure_main(11, campaign, figure), 1);
    EXPECT_FALSE(std::filesystem::exists(checkpoint)) << "a campaign ran";
    const char* from_raw[] = {"fig4", "--from-raw", raw.c_str()};
    EXPECT_EQ(run_figure_main(3, from_raw, figure), 1);
  }
  std::filesystem::remove(raw);
}

}  // namespace
}  // namespace repro::harness
