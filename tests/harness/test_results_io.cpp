// Raw study-outcome persistence: full round trip and validation.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "harness/results_io.hpp"

namespace repro::harness {
namespace {

StudyResults sample_results() {
  StudyResults results;
  results.config.benchmarks = {"add", "harris"};
  results.config.architectures = {"titanv"};
  results.config.algorithms = {"rs", "ga"};
  results.config.sample_sizes = {25, 50};
  for (const char* benchmark : {"add", "harris"}) {
    PanelResults panel;
    panel.benchmark = benchmark;
    panel.architecture = "titanv";
    panel.optimum_us = benchmark == std::string("add") ? 100.0 : 250.5;
    panel.cells.resize(2);
    for (auto& row : panel.cells) row.resize(2);
    panel.cells[0][0].final_times_us = {120.0, 130.0};
    panel.cells[0][1].final_times_us = {110.0};
    panel.cells[1][0].final_times_us = {105.0, std::nan("")};
    panel.cells[1][1].final_times_us = {101.0, 102.0, 103.0};
    results.panels.push_back(std::move(panel));
  }
  return results;
}

TEST(ResultsIo, RoundTripPreservesEverything) {
  const StudyResults original = sample_results();
  const std::string path =
      (std::filesystem::temp_directory_path() / "repro_raw.csv").string();
  ASSERT_TRUE(save_results_csv(original, path));

  const StudyResults loaded = load_results_csv(path);
  EXPECT_EQ(loaded.config.algorithms, original.config.algorithms);
  EXPECT_EQ(loaded.config.sample_sizes, original.config.sample_sizes);
  ASSERT_EQ(loaded.panels.size(), original.panels.size());
  for (std::size_t p = 0; p < original.panels.size(); ++p) {
    const PanelResults& a = original.panels[p];
    const PanelResults& b = loaded.panel(a.benchmark, a.architecture);
    EXPECT_DOUBLE_EQ(a.optimum_us, b.optimum_us);
    for (std::size_t algo = 0; algo < a.cells.size(); ++algo) {
      for (std::size_t s = 0; s < a.cells[algo].size(); ++s) {
        const auto& original_outcomes = a.cells[algo][s].final_times_us;
        const auto& loaded_outcomes = b.cells[algo][s].final_times_us;
        ASSERT_EQ(original_outcomes.size(), loaded_outcomes.size());
        for (std::size_t e = 0; e < original_outcomes.size(); ++e) {
          if (std::isnan(original_outcomes[e])) {
            EXPECT_TRUE(std::isnan(loaded_outcomes[e]));
          } else {
            EXPECT_DOUBLE_EQ(original_outcomes[e], loaded_outcomes[e]);
          }
        }
      }
    }
  }
  std::remove(path.c_str());
}

TEST(ResultsIo, LoadValidatesFormat) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "repro_raw_bad.csv").string();
  {
    std::ofstream out(path);
    out << "not,the,right,header\n";
  }
  EXPECT_THROW((void)load_results_csv(path), std::runtime_error);
  {
    std::ofstream out(path);
    out << "kind,benchmark,architecture,algorithm,sample_size,experiment,value\n"
        << "weird,add,titanv,rs,25,0,1.0\n";
  }
  EXPECT_THROW((void)load_results_csv(path), std::runtime_error);
  {
    std::ofstream out(path);
    out << "kind,benchmark,architecture,algorithm,sample_size,experiment,value\n"
        << "outcome,add,titanv,bogpp,25,0,1.0\n";
  }
  EXPECT_THROW((void)load_results_csv(path), std::runtime_error);
  std::remove(path.c_str());
  EXPECT_THROW((void)load_results_csv("/no_such_dir/x.csv"), std::runtime_error);
}

TEST(ResultsIo, SaveFailsOnBadPath) {
  EXPECT_FALSE(save_results_csv(sample_results(), "/no_such_dir_xyz/raw.csv"));
}

TEST(ResultsIo, LoadRejectsTruncatedRow) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "repro_raw_trunc.csv").string();
  {
    std::ofstream out(path);
    out << "kind,benchmark,architecture,algorithm,sample_size,experiment,value\n"
        << "outcome,add,titanv,rs,25,0,120.0\n"
        << "outcome,add,titanv,rs,25\n";  // row cut mid-write
  }
  EXPECT_THROW((void)load_results_csv(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(ResultsIo, LoadRejectsMismatchedHeader) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "repro_raw_hdr.csv").string();
  {
    // A panel header from some other CSV family (e.g. a figure table).
    std::ofstream out(path);
    out << "figure,benchmark,architecture,algorithm,sample_size,value\n"
        << "fig2,add,titanv,rs,25,90.0\n";
  }
  EXPECT_THROW((void)load_results_csv(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(ResultsIo, LoadParsesNanOutcomeRows) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "repro_raw_nan.csv").string();
  {
    std::ofstream out(path);
    out << "kind,benchmark,architecture,algorithm,sample_size,experiment,value\n"
        << "optimum,add,titanv,,,,100.0\n"
        << "outcome,add,titanv,rs,25,0,nan\n"
        << "outcome,add,titanv,rs,25,1,120.5\n";
  }
  const StudyResults loaded = load_results_csv(path);
  const auto& outcomes = loaded.panel("add", "titanv").cells[0][0].final_times_us;
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_TRUE(std::isnan(outcomes[0]));
  EXPECT_DOUBLE_EQ(outcomes[1], 120.5);
  std::remove(path.c_str());
}

TEST(ResultsIo, FailureTalliesRoundTripAndStayOutOfCleanFiles) {
  StudyResults results = sample_results();
  CellOutcomes& noisy = results.panels[0].cells[1][0];
  noisy.failed_experiments = 1;
  noisy.failures.transient = 4;
  noisy.failures.timeout = 2;
  noisy.failures.retries = 3;
  noisy.failures.retry_successes = 2;
  noisy.failures.backoff_us = 700.0;
  const std::string path =
      (std::filesystem::temp_directory_path() / "repro_raw_failures.csv").string();
  ASSERT_TRUE(save_results_csv(results, path));

  // Exactly the one faulted cell serializes failures rows.
  std::size_t failures_rows = 0;
  {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("failures,", 0) == 0) ++failures_rows;
    }
  }
  EXPECT_EQ(failures_rows, 6u);  // experiments/transient/timeout/retries/successes/backoff

  const StudyResults loaded = load_results_csv(path);
  const CellOutcomes& cell = loaded.panel("add", "titanv").cells[1][0];
  EXPECT_EQ(cell.failed_experiments, 1u);
  EXPECT_EQ(cell.failures.transient, 4u);
  EXPECT_EQ(cell.failures.timeout, 2u);
  EXPECT_EQ(cell.failures.retries, 3u);
  EXPECT_EQ(cell.failures.retry_successes, 2u);
  EXPECT_DOUBLE_EQ(cell.failures.backoff_us, 700.0);
  // Clean cells stay clean.
  EXPECT_FALSE(loaded.panel("harris", "titanv").cells[0][0].failures.any());
  std::remove(path.c_str());
}

TEST(ResultsIo, LoadRejectsBadFailuresRow) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "repro_raw_badfail.csv").string();
  {
    std::ofstream out(path);
    out << "kind,benchmark,architecture,algorithm,sample_size,experiment,value\n"
        << "failures,add,titanv,rs,25,not_a_counter,3\n";
  }
  EXPECT_THROW((void)load_results_csv(path), std::runtime_error);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Checkpoints
// ---------------------------------------------------------------------------

CellOutcomes sample_cell() {
  CellOutcomes cell;
  cell.final_times_us = {110.25, std::nan(""), 130.0625};
  cell.failed_experiments = 1;
  cell.failures.ok = 7;
  cell.failures.transient = 2;
  cell.failures.retries = 2;
  cell.failures.retry_successes = 1;
  cell.failures.backoff_us = 300.0;
  return cell;
}

TEST(Checkpoint, BeginAppendLoadRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "repro_ckpt.csv").string();
  std::remove(path.c_str());
  ASSERT_TRUE(checkpoint_begin(path, 1234567890123456789ull));
  ASSERT_TRUE(checkpoint_append_panel(path, "add", "titanv", 100.125));
  ASSERT_TRUE(checkpoint_append_cell(path, "add", "titanv", "rs", 25, sample_cell()));

  const StudyCheckpoint loaded = load_checkpoint(path);
  EXPECT_EQ(loaded.master_seed, 1234567890123456789ull);
  ASSERT_EQ(loaded.panel_optima.count(StudyCheckpoint::panel_key("add", "titanv")), 1u);
  EXPECT_DOUBLE_EQ(loaded.panel_optima.at("add/titanv"), 100.125);
  const std::string key = StudyCheckpoint::cell_key("add", "titanv", "rs", 25);
  ASSERT_EQ(loaded.cells.count(key), 1u);
  const CellOutcomes& cell = loaded.cells.at(key);
  ASSERT_EQ(cell.final_times_us.size(), 3u);
  EXPECT_DOUBLE_EQ(cell.final_times_us[0], 110.25);
  EXPECT_TRUE(std::isnan(cell.final_times_us[1]));
  EXPECT_DOUBLE_EQ(cell.final_times_us[2], 130.0625);
  EXPECT_EQ(cell.failed_experiments, 1u);
  EXPECT_EQ(cell.failures.ok, 7u);
  EXPECT_EQ(cell.failures.transient, 2u);
  EXPECT_EQ(cell.failures.retry_successes, 1u);
  EXPECT_DOUBLE_EQ(cell.failures.backoff_us, 300.0);
  std::remove(path.c_str());
}

TEST(Checkpoint, BeginIsIdempotent) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "repro_ckpt_idem.csv").string();
  std::remove(path.c_str());
  ASSERT_TRUE(checkpoint_begin(path, 42));
  ASSERT_TRUE(checkpoint_append_panel(path, "add", "titanv", 100.0));
  // Second begin must not rewrite the header or clobber records.
  ASSERT_TRUE(checkpoint_begin(path, 42));
  const StudyCheckpoint loaded = load_checkpoint(path);
  EXPECT_EQ(loaded.master_seed, 42u);
  EXPECT_EQ(loaded.panel_optima.size(), 1u);
  std::remove(path.c_str());
}

TEST(Checkpoint, TornTrailingRecordIsIgnored) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "repro_ckpt_torn.csv").string();
  std::remove(path.c_str());
  ASSERT_TRUE(checkpoint_begin(path, 9));
  ASSERT_TRUE(checkpoint_append_cell(path, "add", "titanv", "rs", 25, sample_cell()));
  ASSERT_TRUE(checkpoint_append_cell(path, "add", "titanv", "ga", 25, sample_cell()));
  {
    // Simulate a crash mid-append: the trailing record lies about its count.
    std::ofstream out(path, std::ios::app);
    out << "cell,add,titanv,bogp,25,0,5,0,0,0,0,0,0,0,4,110.0,120.0\n";
  }
  const StudyCheckpoint loaded = load_checkpoint(path);
  EXPECT_EQ(loaded.cells.size(), 2u);
  EXPECT_EQ(loaded.cells.count(StudyCheckpoint::cell_key("add", "titanv", "bogp", 25)), 0u);
  std::remove(path.c_str());
}

TEST(Checkpoint, MidFileCorruptionThrows) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "repro_ckpt_corrupt.csv").string();
  std::remove(path.c_str());
  ASSERT_TRUE(checkpoint_begin(path, 9));
  {
    std::ofstream out(path, std::ios::app);
    out << "garbage,record\n";
  }
  ASSERT_TRUE(checkpoint_append_cell(path, "add", "titanv", "rs", 25, sample_cell()));
  // The bad record is NOT trailing, so this is real corruption, not a crash.
  EXPECT_THROW((void)load_checkpoint(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(ResultsIo, LoadAcceptsCrlfAndTrailingWhitespace) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "repro_raw_crlf.csv").string();
  {
    std::ofstream out(path, std::ios::binary);
    out << "kind,benchmark,architecture,algorithm,sample_size,experiment,value\r\n"
        << "optimum,add,titanv,,,,100.0\r\n"
        << "outcome,add,titanv,rs,25,0,120.5 \r\n"
        << "outcome,add,titanv,rs,25,1,nan\t\r\n";
  }
  const StudyResults loaded = load_results_csv(path);
  const auto& outcomes = loaded.panel("add", "titanv").cells[0][0].final_times_us;
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_DOUBLE_EQ(outcomes[0], 120.5);
  EXPECT_TRUE(std::isnan(outcomes[1]));
  std::remove(path.c_str());
}

TEST(Checkpoint, UnterminatedFinalLineIsDroppedEvenWhenParseable) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "repro_ckpt_noterm.csv").string();
  std::remove(path.c_str());
  ASSERT_TRUE(checkpoint_begin(path, 9));
  ASSERT_TRUE(checkpoint_append_cell(path, "add", "titanv", "rs", 25, sample_cell()));
  {
    // A torn write whose prefix happens to be a complete, valid record: a
    // 2-outcome cell torn out of what would have been a longer one. Only the
    // missing '\n' betrays the tear.
    std::ofstream out(path, std::ios::app);
    out << "cell,add,titanv,ga,25,0,5,0,0,0,0,0,0,0,2,110.0,120.0";
  }
  const StudyCheckpoint loaded = load_checkpoint(path);
  EXPECT_EQ(loaded.cells.size(), 1u);
  EXPECT_EQ(loaded.cells.count(StudyCheckpoint::cell_key("add", "titanv", "ga", 25)), 0u);
  std::remove(path.c_str());
}

TEST(Checkpoint, BeginTruncatesTornTailSoResumeAppendsCleanly) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "repro_ckpt_repair.csv").string();
  std::remove(path.c_str());
  ASSERT_TRUE(checkpoint_begin(path, 9));
  ASSERT_TRUE(checkpoint_append_cell(path, "add", "titanv", "rs", 25, sample_cell()));
  {
    std::ofstream out(path, std::ios::app);
    out << "cell,add,titanv,ga,25,0,5";  // crash mid-append, no '\n'
  }
  // Resume: begin repairs the tail, so the next append starts on a fresh
  // line instead of concatenating onto the torn record...
  ASSERT_TRUE(checkpoint_begin(path, 9));
  ASSERT_TRUE(checkpoint_append_cell(path, "add", "titanv", "bogp", 25, sample_cell()));
  // ...and a SECOND resume still loads (this is the regression: without the
  // repair the concatenated line corrupts the middle of the file).
  const StudyCheckpoint loaded = load_checkpoint(path);
  EXPECT_EQ(loaded.master_seed, 9u);
  EXPECT_EQ(loaded.cells.size(), 2u);
  EXPECT_EQ(loaded.cells.count(StudyCheckpoint::cell_key("add", "titanv", "rs", 25)), 1u);
  EXPECT_EQ(loaded.cells.count(StudyCheckpoint::cell_key("add", "titanv", "bogp", 25)), 1u);
  EXPECT_EQ(loaded.cells.count(StudyCheckpoint::cell_key("add", "titanv", "ga", 25)), 0u);
  std::remove(path.c_str());
}

TEST(Checkpoint, TornHeaderLoadsAsEmptyAndBeginRepairs) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "repro_ckpt_tornhdr.csv").string();
  {
    std::ofstream out(path, std::ios::binary);
    out << "checkpoint,v1,12";  // header itself torn, no '\n'
  }
  const StudyCheckpoint loaded = load_checkpoint(path);
  EXPECT_TRUE(loaded.empty());
  // begin truncates the torn header and writes a fresh one.
  ASSERT_TRUE(checkpoint_begin(path, 777));
  const StudyCheckpoint repaired = load_checkpoint(path);
  EXPECT_EQ(repaired.master_seed, 777u);
  std::remove(path.c_str());
}

TEST(Checkpoint, LoadAcceptsCrlfLineEndings) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "repro_ckpt_crlf.csv").string();
  {
    std::ofstream out(path, std::ios::binary);
    out << "checkpoint,v1,42\r\n"
        << "panel,add,titanv,100.5\r\n"
        << "cell,add,titanv,rs,25,0,2,0,0,0,0,0,0,0,2,110.0,120.0\r\n";
  }
  const StudyCheckpoint loaded = load_checkpoint(path);
  EXPECT_EQ(loaded.master_seed, 42u);
  EXPECT_DOUBLE_EQ(loaded.panel_optima.at("add/titanv"), 100.5);
  ASSERT_EQ(loaded.cells.count(StudyCheckpoint::cell_key("add", "titanv", "rs", 25)), 1u);
  std::remove(path.c_str());
}

TEST(Checkpoint, LoadValidatesHeader) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "repro_ckpt_hdr.csv").string();
  {
    std::ofstream out(path);
    out << "kind,benchmark,architecture,algorithm,sample_size,experiment,value\n";
  }
  EXPECT_THROW((void)load_checkpoint(path), std::runtime_error);
  std::remove(path.c_str());
  EXPECT_THROW((void)load_checkpoint("/no_such_dir/ckpt.csv"), std::runtime_error);
}

}  // namespace
}  // namespace repro::harness
