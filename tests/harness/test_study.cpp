// Study driver: experiment-count arithmetic (the paper's E(S) = 20000/S
// rule), single-experiment behaviour per algorithm family, a tiny but
// complete end-to-end study, and the fault-tolerance pipeline (graceful
// degradation, checkpoint/resume determinism).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/results_io.hpp"
#include "harness/study.hpp"

namespace repro::harness {
namespace {

TEST(StudyConfig, PaperExperimentCounts) {
  StudyConfig config;
  config.scale_divisor = 1.0;
  config.min_experiments = 1;
  EXPECT_EQ(config.experiments_for(25), 800u);
  EXPECT_EQ(config.experiments_for(50), 400u);
  EXPECT_EQ(config.experiments_for(100), 200u);
  EXPECT_EQ(config.experiments_for(200), 100u);
  EXPECT_EQ(config.experiments_for(400), 50u);
}

TEST(StudyConfig, ScaledCountsRespectFloor) {
  StudyConfig config;
  config.scale_divisor = 32.0;
  config.min_experiments = 4;
  EXPECT_EQ(config.experiments_for(25), 25u);
  EXPECT_EQ(config.experiments_for(400), 4u);  // floor kicks in
}

TEST(StudyConfig, DatasetSizeCoversEverySubdivision) {
  StudyConfig config;
  config.scale_divisor = 1.0;
  config.min_experiments = 1;
  EXPECT_EQ(config.dataset_size_needed(), 20000u);  // the paper's dataset
  config.scale_divisor = 32.0;
  config.min_experiments = 4;
  const std::size_t needed = config.dataset_size_needed();
  for (std::size_t size : config.sample_sizes) {
    EXPECT_LE(config.experiments_for(size) * size, needed);
  }
}

class SingleExperiment : public ::testing::TestWithParam<std::string> {
 protected:
  static const BenchmarkContext& context() {
    static const BenchmarkContext ctx(imagecl::make_benchmark("add", 512, 512),
                                      simgpu::titan_v(), 300, 42);
    return ctx;
  }
};

TEST_P(SingleExperiment, ProducesFiniteOutcomeAboveOptimum) {
  const double outcome =
      run_single_experiment_indexed(context(), GetParam(), 25, 1, 10, 1234);
  ASSERT_FALSE(std::isnan(outcome));
  EXPECT_GT(outcome, context().optimum_us() * 0.9);  // noise can dip slightly
  EXPECT_LT(outcome, context().optimum_us() * 100.0);
}

TEST_P(SingleExperiment, DeterministicInSeed) {
  const double a = run_single_experiment_indexed(context(), GetParam(), 25, 0, 10, 99);
  const double b = run_single_experiment_indexed(context(), GetParam(), 25, 0, 10, 99);
  EXPECT_DOUBLE_EQ(a, b);
}

INSTANTIATE_TEST_SUITE_P(Algorithms, SingleExperiment,
                         ::testing::Values("rs", "rf", "ga", "bogp", "botpe"));

TEST(Study, TinyEndToEndRunHasFullShape) {
  StudyConfig config;
  config.benchmarks = {"add"};
  config.architectures = {"titanv"};
  config.algorithms = {"rs", "ga"};
  config.sample_sizes = {10, 20};
  config.scale_divisor = 1000.0;
  config.min_experiments = 3;
  config.master_seed = 7;
  // NOTE: contexts always use the full-size benchmarks; this test therefore
  // exercises the real models but with few, cheap experiments.
  const StudyResults results = run_study(config);
  ASSERT_EQ(results.panels.size(), 1u);
  const PanelResults& panel = results.panels[0];
  EXPECT_EQ(panel.benchmark, "add");
  EXPECT_GT(panel.optimum_us, 0.0);
  ASSERT_EQ(panel.cells.size(), 2u);       // algorithms
  ASSERT_EQ(panel.cells[0].size(), 2u);    // sizes
  for (const auto& row : panel.cells) {
    for (const auto& cell : row) {
      EXPECT_EQ(cell.final_times_us.size(), 3u);
      for (double t : cell.final_times_us) {
        EXPECT_FALSE(std::isnan(t));
        EXPECT_GT(t, panel.optimum_us * 0.5);
      }
    }
  }
  EXPECT_NO_THROW((void)results.panel("add", "titanv"));
  EXPECT_THROW((void)results.panel("harris", "titanv"), std::out_of_range);
}

TEST(Study, DeterministicAcrossRuns) {
  StudyConfig config;
  config.benchmarks = {"add"};
  config.architectures = {"gtx980"};
  config.algorithms = {"rs"};
  config.sample_sizes = {15};
  config.scale_divisor = 1000.0;
  config.min_experiments = 4;
  config.master_seed = 99;
  const StudyResults a = run_study(config);
  const StudyResults b = run_study(config);
  for (std::size_t e = 0; e < 4; ++e) {
    EXPECT_DOUBLE_EQ(a.panels[0].cells[0][0].final_times_us[e],
                     b.panels[0].cells[0][0].final_times_us[e]);
  }
}

StudyConfig tiny_config() {
  StudyConfig config;
  config.benchmarks = {"add"};
  config.architectures = {"titanv"};
  config.algorithms = {"rs", "ga"};
  config.sample_sizes = {10, 20};
  config.scale_divisor = 1000.0;
  config.min_experiments = 3;
  config.master_seed = 7;
  return config;
}

bool results_identical(const StudyResults& a, const StudyResults& b) {
  if (a.panels.size() != b.panels.size()) return false;
  for (std::size_t p = 0; p < a.panels.size(); ++p) {
    if (a.panels[p].optimum_us != b.panels[p].optimum_us) return false;
    for (std::size_t algo = 0; algo < a.panels[p].cells.size(); ++algo) {
      for (std::size_t s = 0; s < a.panels[p].cells[algo].size(); ++s) {
        const auto& ca = a.panels[p].cells[algo][s];
        const auto& cb = b.panels[p].cells[algo][s];
        if (ca.final_times_us.size() != cb.final_times_us.size()) return false;
        for (std::size_t e = 0; e < ca.final_times_us.size(); ++e) {
          const bool nan_a = std::isnan(ca.final_times_us[e]);
          const bool nan_b = std::isnan(cb.final_times_us[e]);
          if (nan_a != nan_b) return false;
          if (!nan_a && ca.final_times_us[e] != cb.final_times_us[e]) return false;
        }
        if (ca.failed_experiments != cb.failed_experiments) return false;
        if (ca.failures.faults() != cb.failures.faults()) return false;
        if (ca.failures.retries != cb.failures.retries) return false;
      }
    }
  }
  return true;
}

TEST(Study, FaultsProduceTalliesButNeverAbortTheCampaign) {
  StudyConfig config = tiny_config();
  config.faults = simgpu::FaultModel::with_rate(0.30);
  config.retry.max_retries = 2;
  const StudyResults results = run_study(config);
  ASSERT_EQ(results.panels.size(), 1u);
  std::size_t total_faults = 0;
  for (const auto& row : results.panels[0].cells) {
    for (const CellOutcomes& cell : row) {
      EXPECT_EQ(cell.final_times_us.size(), 3u);  // shape survives faults
      total_faults += cell.failures.faults();
    }
  }
  EXPECT_GT(total_faults, 0u);  // at a 30% rate something must have fired
}

TEST(Study, FaultyStudyIsStillDeterministic) {
  StudyConfig config = tiny_config();
  config.faults = simgpu::FaultModel::with_rate(0.20);
  config.retry.max_retries = 1;
  const StudyResults a = run_study(config);
  const StudyResults b = run_study(config);
  EXPECT_TRUE(results_identical(a, b));
}

TEST(Study, RunExperimentDetailedReportsCounters) {
  BenchmarkContext context(imagecl::make_benchmark("add", 512, 512),
                           simgpu::titan_v(), 300, 42);
  context.set_fault_model(simgpu::FaultModel::with_rate(0.5));
  ExperimentOptions options;
  options.retry.max_retries = 2;
  tuner::FailureCounters total;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const ExperimentOutcome outcome =
        run_experiment_detailed(context, "ga", 20, 0, seed, options);
    EXPECT_FALSE(outcome.aborted);
    total += outcome.counters;
  }
  EXPECT_GT(total.faults(), 0u);
  EXPECT_GT(total.retries, 0u);
}

TEST(Study, CheckpointKillAndResumeMatchesUninterruptedRun) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "repro_study_ckpt.csv").string();
  std::remove(path.c_str());

  StudyConfig config = tiny_config();
  config.faults = simgpu::FaultModel::with_rate(0.10);  // faults survive resume too
  config.retry.max_retries = 1;
  const StudyResults uninterrupted = run_study(config);

  // Produce a complete checkpoint of the identical campaign.
  config.checkpoint_path = path;
  const StudyResults checkpointed = run_study(config);
  ASSERT_TRUE(results_identical(uninterrupted, checkpointed));

  std::vector<std::string> lines;
  {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  // header + panel + 4 cells
  ASSERT_EQ(lines.size(), 6u);

  // Kill at every possible cell boundary: rewrite the checkpoint truncated
  // to k records and resume. Each resumed run must equal the uninterrupted
  // one exactly.
  for (std::size_t keep = 1; keep + 1 < lines.size(); ++keep) {
    std::remove(path.c_str());
    {
      std::ofstream out(path);
      for (std::size_t i = 0; i <= keep; ++i) out << lines[i] << '\n';
    }
    const StudyResults resumed = run_study(config);
    EXPECT_TRUE(results_identical(uninterrupted, resumed))
        << "resume after " << keep << " checkpoint records diverged";
  }

  // A fully-restored run (all records present) must match as well, without
  // re-running anything.
  {
    std::remove(path.c_str());
    std::ofstream out(path);
    for (const std::string& line : lines) out << line << '\n';
  }
  const StudyResults restored = run_study(config);
  EXPECT_TRUE(results_identical(uninterrupted, restored));
  std::remove(path.c_str());
}

TEST(Study, ResumeRejectsForeignCheckpoint) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "repro_study_ckpt_foreign.csv").string();
  std::remove(path.c_str());
  ASSERT_TRUE(checkpoint_begin(path, 1111));
  ASSERT_TRUE(checkpoint_append_panel(path, "add", "titanv", 100.0));

  StudyConfig config = tiny_config();
  config.master_seed = 2222;  // different campaign
  config.checkpoint_path = path;
  EXPECT_THROW((void)run_study(config), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Study, ResumeRejectsMismatchedExperimentCount) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "repro_study_ckpt_scale.csv").string();
  std::remove(path.c_str());

  StudyConfig config = tiny_config();
  config.checkpoint_path = path;
  (void)run_study(config);

  // Same seed, different scale: cells in the checkpoint hold the wrong
  // number of experiments and silently mixing them would corrupt figures.
  config.min_experiments = 5;
  EXPECT_THROW((void)run_study(config), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Study, RejectsUnusableScaleAndSampleSizeBeforeAnyWork) {
  // Each of these used to reach the experiment-count arithmetic and die in
  // an allocation of "infinitely" many experiments. The checkpoint path
  // shows that nothing ran: the file is created only once the config holds.
  const std::string path =
      (std::filesystem::temp_directory_path() / "repro_study_ckpt_invalid.csv").string();
  std::remove(path.c_str());
  for (double scale : {0.0, -4.0, std::numeric_limits<double>::quiet_NaN(),
                       std::numeric_limits<double>::infinity()}) {
    StudyConfig config = tiny_config();
    config.checkpoint_path = path;
    config.scale_divisor = scale;
    EXPECT_THROW((void)run_study(config), std::invalid_argument) << "scale=" << scale;
  }
  StudyConfig config = tiny_config();
  config.checkpoint_path = path;
  config.sample_sizes = {10, 0};
  EXPECT_THROW((void)run_study(config), std::invalid_argument);
  // A mistyped algorithm id must fail here, not after the campaign when
  // the figures look up its display name.
  config = tiny_config();
  config.checkpoint_path = path;
  config.algorithms = {"rs", "bogpp"};
  EXPECT_THROW((void)run_study(config), std::invalid_argument);
  EXPECT_FALSE(std::filesystem::exists(path));
}

}  // namespace
}  // namespace repro::harness
