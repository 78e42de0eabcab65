#include "harness/results_io.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "common/log.hpp"
#include "tuner/registry.hpp"

namespace repro::harness {
namespace {

std::size_t index_of_or_append(std::vector<std::string>& names, const std::string& name) {
  const auto it = std::find(names.begin(), names.end(), name);
  if (it != names.end()) return static_cast<std::size_t>(it - names.begin());
  names.push_back(name);
  return names.size() - 1;
}

std::size_t index_of_or_append(std::vector<std::size_t>& values, std::size_t value) {
  const auto it = std::find(values.begin(), values.end(), value);
  if (it != values.end()) return static_cast<std::size_t>(it - values.begin());
  values.push_back(value);
  return values.size() - 1;
}

/// Nonzero counters of a cell as (name, value) pairs, in stable order.
/// Empty unless the fault layer intervened, so fault-free results keep the
/// legacy byte-exact format.
std::vector<std::pair<std::string, double>> failure_fields(const CellOutcomes& cell) {
  std::vector<std::pair<std::string, double>> fields;
  if (!cell.failures.any()) return fields;
  const tuner::FailureCounters& c = cell.failures;
  const auto add = [&](const char* name, double value) {
    if (value != 0.0) fields.emplace_back(name, value);
  };
  add("experiments", static_cast<double>(cell.failed_experiments));
  add("ok", static_cast<double>(c.ok));
  add("invalid", static_cast<double>(c.invalid));
  add("transient", static_cast<double>(c.transient));
  add("timeout", static_cast<double>(c.timeout));
  add("crashed", static_cast<double>(c.crashed));
  add("retries", static_cast<double>(c.retries));
  add("retry_successes", static_cast<double>(c.retry_successes));
  add("backoff_us", c.backoff_us);
  return fields;
}

void apply_failure_field(CellOutcomes& cell, const std::string& name, double value) {
  tuner::FailureCounters& c = cell.failures;
  const auto n = [&](double v) { return static_cast<std::size_t>(v); };
  if (name == "experiments") cell.failed_experiments = n(value);
  else if (name == "ok") c.ok = n(value);
  else if (name == "invalid") c.invalid = n(value);
  else if (name == "transient") c.transient = n(value);
  else if (name == "timeout") c.timeout = n(value);
  else if (name == "crashed") c.crashed = n(value);
  else if (name == "retries") c.retries = n(value);
  else if (name == "retry_successes") c.retry_successes = n(value);
  else if (name == "backoff_us") c.backoff_us = value;
  else throw std::runtime_error("unknown failure counter: " + name);
}

std::vector<std::string> split_fields(const std::string& line) {
  std::vector<std::string> fields;
  std::string current;
  for (char ch : line) {
    if (ch == ',') {
      fields.push_back(std::move(current));
      current.clear();
    } else {
      current += ch;
    }
  }
  fields.push_back(std::move(current));
  return fields;
}

double parse_outcome(const std::string& text) {
  return text == "nan" ? std::numeric_limits<double>::quiet_NaN() : std::stod(text);
}

/// Strip a trailing CR (files that passed through Windows tooling or a
/// text-mode transfer) and trailing spaces/tabs from one line.
void strip_line_ending(std::string& line) {
  while (!line.empty() &&
         (line.back() == '\r' || line.back() == ' ' || line.back() == '\t')) {
    line.pop_back();
  }
}

constexpr const char* kCheckpointHeaderPrefix = "checkpoint,v1,";

}  // namespace

bool save_results_csv(const StudyResults& results, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out.precision(17);
  out << "kind,benchmark,architecture,algorithm,sample_size,experiment,value\n";
  for (const PanelResults& panel : results.panels) {
    out << "optimum," << panel.benchmark << ',' << panel.architecture
        << ",,,," << panel.optimum_us << '\n';
    for (std::size_t a = 0; a < panel.cells.size(); ++a) {
      const std::string& algorithm = results.config.algorithms[a];
      for (std::size_t s = 0; s < panel.cells[a].size(); ++s) {
        const std::size_t size = results.config.sample_sizes[s];
        const CellOutcomes& cell = panel.cells[a][s];
        for (std::size_t e = 0; e < cell.final_times_us.size(); ++e) {
          out << "outcome," << panel.benchmark << ',' << panel.architecture << ','
              << algorithm << ',' << size << ',' << e << ','
              << cell.final_times_us[e] << '\n';
        }
        // Failure tallies ride in the same 7-column format with the counter
        // name in the experiment column; idle cells emit nothing, keeping
        // legacy files byte-identical.
        for (const auto& [name, value] : failure_fields(cell)) {
          out << "failures," << panel.benchmark << ',' << panel.architecture << ','
              << algorithm << ',' << size << ',' << name << ',' << value << '\n';
        }
      }
    }
  }
  return static_cast<bool>(out);
}

StudyResults load_results_csv(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_results_csv: cannot open " + path);
  std::string line;
  if (!std::getline(in, line)) {
    throw std::runtime_error("load_results_csv: bad header in " + path);
  }
  strip_line_ending(line);
  if (line.rfind("kind,", 0) != 0) {
    throw std::runtime_error("load_results_csv: bad header in " + path);
  }

  StudyResults results;
  auto panel_of = [&](const std::string& benchmark,
                      const std::string& architecture) -> PanelResults& {
    for (PanelResults& panel : results.panels) {
      if (panel.benchmark == benchmark && panel.architecture == architecture) {
        return panel;
      }
    }
    (void)index_of_or_append(results.config.benchmarks, benchmark);
    (void)index_of_or_append(results.config.architectures, architecture);
    results.panels.push_back({});
    results.panels.back().benchmark = benchmark;
    results.panels.back().architecture = architecture;
    return results.panels.back();
  };

  // Config lists start empty and grow in file order.
  results.config.benchmarks.clear();
  results.config.architectures.clear();
  results.config.algorithms.clear();
  results.config.sample_sizes.clear();

  std::size_t line_number = 1;
  while (std::getline(in, line)) {
    ++line_number;
    strip_line_ending(line);
    if (line.empty()) continue;
    std::stringstream fields(line);
    std::string kind, benchmark, architecture, algorithm, size_text, exp_text,
        value_text;
    if (!std::getline(fields, kind, ',') || !std::getline(fields, benchmark, ',') ||
        !std::getline(fields, architecture, ',') ||
        !std::getline(fields, algorithm, ',') ||
        !std::getline(fields, size_text, ',') ||
        !std::getline(fields, exp_text, ',') || !std::getline(fields, value_text)) {
      throw std::runtime_error("load_results_csv: short row at line " +
                               std::to_string(line_number));
    }
    PanelResults& panel = panel_of(benchmark, architecture);
    if (kind == "optimum") {
      panel.optimum_us = std::stod(value_text);
      continue;
    }
    if (kind != "outcome" && kind != "failures") {
      throw std::runtime_error("load_results_csv: unknown kind at line " +
                               std::to_string(line_number));
    }
    const std::size_t known_algorithms = results.config.algorithms.size();
    const std::size_t a = index_of_or_append(results.config.algorithms, algorithm);
    if (a == known_algorithms && !tuner::is_algorithm(algorithm)) {
      throw std::runtime_error("load_results_csv: unknown algorithm '" + algorithm +
                               "' at line " + std::to_string(line_number));
    }
    const std::size_t s = index_of_or_append(results.config.sample_sizes,
                                             std::stoull(size_text));
    if (panel.cells.size() < results.config.algorithms.size()) {
      panel.cells.resize(results.config.algorithms.size());
    }
    for (auto& row : panel.cells) {
      if (row.size() < results.config.sample_sizes.size()) {
        row.resize(results.config.sample_sizes.size());
      }
    }
    if (kind == "failures") {
      try {
        apply_failure_field(panel.cells[a][s], exp_text, std::stod(value_text));
      } catch (const std::exception& error) {
        throw std::runtime_error("load_results_csv: bad failures row at line " +
                                 std::to_string(line_number) + ": " + error.what());
      }
      continue;
    }
    panel.cells[a][s].final_times_us.push_back(parse_outcome(value_text));
  }

  // Cells may have been created lazily per panel; normalize shapes.
  for (PanelResults& panel : results.panels) {
    panel.cells.resize(results.config.algorithms.size());
    for (auto& row : panel.cells) row.resize(results.config.sample_sizes.size());
  }
  return results;
}

// ---------------------------------------------------------------------------
// Per-cell study checkpoints
// ---------------------------------------------------------------------------

std::string StudyCheckpoint::panel_key(const std::string& benchmark,
                                       const std::string& architecture) {
  return benchmark + "/" + architecture;
}

std::string StudyCheckpoint::cell_key(const std::string& benchmark,
                                      const std::string& architecture,
                                      const std::string& algorithm,
                                      std::size_t sample_size) {
  return benchmark + "/" + architecture + "/" + algorithm + "/" +
         std::to_string(sample_size);
}

namespace {

/// Drop an unterminated trailing line left by a crash mid-append. Without
/// this, the next append would concatenate onto the torn line and corrupt a
/// record in the *middle* of the file — which a later resume would then
/// correctly refuse to load. Returns false on IO failure.
bool truncate_torn_tail(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();
  if (content.empty() || content.back() == '\n') return true;
  const std::size_t last_newline = content.find_last_of('\n');
  const std::size_t keep = last_newline == std::string::npos ? 0 : last_newline + 1;
  log_warn("checkpoint {}: truncating torn unterminated tail ({} bytes)", path,
           content.size() - keep);
  std::error_code ec;
  std::filesystem::resize_file(path, keep, ec);
  return !ec;
}

}  // namespace

bool checkpoint_begin(const std::string& path, std::uint64_t master_seed) {
  std::error_code ec;
  if (std::filesystem::exists(path, ec)) {
    // Repair a torn write before the first append of this run; if the tear
    // took the header with it, fall through and rewrite the header.
    if (!truncate_torn_tail(path)) return false;
    if (std::filesystem::file_size(path, ec) > 0 && !ec) return true;
  }
  std::ofstream out(path, std::ios::app);
  if (!out) return false;
  out << kCheckpointHeaderPrefix << master_seed << '\n';
  return static_cast<bool>(out);
}

bool checkpoint_append_panel(const std::string& path, const std::string& benchmark,
                             const std::string& architecture, double optimum_us) {
  std::ofstream out(path, std::ios::app);
  if (!out) return false;
  out.precision(17);
  out << "panel," << benchmark << ',' << architecture << ',' << optimum_us << '\n';
  out.flush();
  return static_cast<bool>(out);
}

bool checkpoint_append_cell(const std::string& path, const std::string& benchmark,
                            const std::string& architecture,
                            const std::string& algorithm, std::size_t sample_size,
                            const CellOutcomes& cell) {
  std::ofstream out(path, std::ios::app);
  if (!out) return false;
  out.precision(17);
  const tuner::FailureCounters& c = cell.failures;
  out << "cell," << benchmark << ',' << architecture << ',' << algorithm << ','
      << sample_size << ',' << cell.failed_experiments << ',' << c.ok << ','
      << c.invalid << ',' << c.transient << ',' << c.timeout << ',' << c.crashed
      << ',' << c.retries << ',' << c.retry_successes << ',' << c.backoff_us << ','
      << cell.final_times_us.size();
  for (double value : cell.final_times_us) out << ',' << value;
  out << '\n';
  out.flush();
  return static_cast<bool>(out);
}

namespace {

/// Parse one checkpoint record; throws on malformed content.
void apply_checkpoint_line(StudyCheckpoint& checkpoint, const std::string& line) {
  const std::vector<std::string> f = split_fields(line);
  if (f.empty()) throw std::runtime_error("empty record");
  if (f[0] == "panel") {
    if (f.size() != 4) throw std::runtime_error("panel record needs 4 fields");
    checkpoint.panel_optima[StudyCheckpoint::panel_key(f[1], f[2])] = std::stod(f[3]);
    return;
  }
  if (f[0] != "cell") throw std::runtime_error("unknown record kind: " + f[0]);
  if (f.size() < 15) throw std::runtime_error("cell record needs >= 15 fields");
  CellOutcomes cell;
  cell.failed_experiments = std::stoull(f[5]);
  cell.failures.ok = std::stoull(f[6]);
  cell.failures.invalid = std::stoull(f[7]);
  cell.failures.transient = std::stoull(f[8]);
  cell.failures.timeout = std::stoull(f[9]);
  cell.failures.crashed = std::stoull(f[10]);
  cell.failures.retries = std::stoull(f[11]);
  cell.failures.retry_successes = std::stoull(f[12]);
  cell.failures.backoff_us = std::stod(f[13]);
  const std::size_t count = std::stoull(f[14]);
  if (f.size() != 15 + count) {
    throw std::runtime_error("cell record truncated: expected " +
                             std::to_string(count) + " outcomes");
  }
  cell.final_times_us.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    cell.final_times_us.push_back(parse_outcome(f[15 + i]));
  }
  checkpoint.cells[StudyCheckpoint::cell_key(f[1], f[2], f[3], std::stoull(f[4]))] =
      std::move(cell);
}

}  // namespace

StudyCheckpoint load_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("load_checkpoint: cannot open " + path);
  const std::string content((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());

  // Every checkpoint writer terminates its line with '\n', so an
  // unterminated final line is always a torn write — drop it even when its
  // prefix happens to parse.
  const bool terminated = !content.empty() && content.back() == '\n';
  std::vector<std::string> lines;
  std::string current;
  for (const char ch : content) {
    if (ch == '\n') {
      lines.push_back(std::move(current));
      current.clear();
    } else {
      current += ch;
    }
  }
  if (!current.empty() && !terminated) {
    log_warn("checkpoint {}: ignoring torn unterminated final line ({} bytes)", path,
             current.size());
  }
  for (std::string& line : lines) strip_line_ending(line);
  while (!lines.empty() && lines.back().empty()) lines.pop_back();

  StudyCheckpoint checkpoint;
  if (lines.empty()) {
    // Nothing but a torn (or absent) header survives: treat as a fresh
    // checkpoint — checkpoint_begin() repairs the file before appending.
    if (!content.empty()) {
      log_warn("checkpoint {}: header is torn; resuming with no completed cells",
               path);
    }
    return checkpoint;
  }
  if (lines.front().rfind(kCheckpointHeaderPrefix, 0) != 0) {
    throw std::runtime_error("load_checkpoint: bad header in " + path);
  }
  checkpoint.master_seed =
      std::stoull(lines.front().substr(std::string(kCheckpointHeaderPrefix).size()));

  for (std::size_t i = 1; i < lines.size(); ++i) {
    if (lines[i].empty()) continue;
    try {
      apply_checkpoint_line(checkpoint, lines[i]);
    } catch (const std::exception& error) {
      if (i + 1 == lines.size()) {
        // A crash can also tear a record that still got its '\n' flushed
        // separately; a malformed *final* record is dropped either way.
        log_warn("checkpoint {}: ignoring torn trailing record ({})", path,
                 error.what());
        break;
      }
      throw std::runtime_error("load_checkpoint: malformed record at line " +
                               std::to_string(i + 1) + " of " + path + ": " +
                               error.what());
    }
  }
  return checkpoint;
}

}  // namespace repro::harness
