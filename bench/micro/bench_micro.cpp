// bench_micro: perf-regression gate driver.
//
// Runs the google-benchmark micro suites with --benchmark_format=json,
// validates each report, and merges them into one BENCH_micro.json whose
// `suites` array nests the suites' verbatim reports. Two additions on top
// of the raw merge:
//
//   history   — instead of silently overwriting the previous snapshot, the
//               driver carries forward the `history` array of the existing
//               --out file (when present and parseable) and appends one
//               compact entry per run: date, git revision, smoke flag, and
//               the per-suite headline medians. The verbatim reports stay
//               current-run-only; the history is the cheap longitudinal
//               record reviewers diff across PRs.
//   --check B — regression mode: run the suites, compute the same headline
//               medians, and compare them against the suites recorded in
//               baseline file B. Fails (exit 1) when a suite's median
//               exceeds 3x its baseline — generous on purpose; this
//               container's timings are noisy, and the gate exists to catch
//               order-of-magnitude regressions, not percent drift.
//
// CI runs it under the `perf` CTest label in --smoke mode (short
// --benchmark_min_time), asserting every suite runs, emits parseable JSON,
// and stays within the 3x envelope of the committed baseline.
//
// The sibling suite binaries are located next to this executable (same
// build directory); --bin-dir overrides that for out-of-tree invocations.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"

namespace {

struct Options {
  bool smoke = false;
  std::string out = "BENCH_micro.json";
  std::string bin_dir;  // default: directory of argv[0]
  std::string check;    // baseline file for regression comparison
};

const char* const kSuites[] = {"micro_gp",      "micro_tuners", "micro_simulator",
                               "micro_service", "micro_wal",    "micro_store",
                               "micro_cluster", "micro_lint"};

/// Minimal structural validation: a google-benchmark report must be a
/// balanced object that contains a "benchmarks" array. Brace balancing
/// skips string literals — enough to catch truncated or interleaved output
/// without parsing the full grammar.
bool looks_like_benchmark_json(const std::string& text) {
  if (text.find("\"benchmarks\"") == std::string::npos) return false;
  long depth = 0;
  bool in_string = false;
  bool escaped = false;
  bool seen_object = false;
  for (const char c : text) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
      seen_object = true;
    } else if (c == '}' || c == ']') {
      if (--depth < 0) return false;
    }
  }
  return seen_object && depth == 0 && !in_string;
}

/// Run one command, returning its stdout (empty on spawn failure).
std::string run_command(const std::string& command) {
  std::string output;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return output;
  char buffer[4096];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    output.append(buffer, got);
  }
  const int status = pclose(pipe);
  if (status != 0) output.clear();
  return output;
}

/// Indent every line of a JSON document for readable nesting.
std::string indent(const std::string& text, const std::string& prefix) {
  std::string out;
  out.reserve(text.size());
  bool at_line_start = true;
  for (const char c : text) {
    if (at_line_start && c != '\n') out += prefix;
    at_line_start = (c == '\n');
    out += c;
  }
  return out;
}

double unit_to_ns(const std::string& unit) {
  if (unit == "ms") return 1e6;
  if (unit == "us") return 1e3;
  if (unit == "s") return 1e9;
  return 1.0;  // ns, the google-benchmark default
}

/// Median real_time (in ns) over every non-errored benchmark entry of one
/// suite report. Returns a negative value when the report has no usable
/// entries.
double headline_median_ns(const repro::Json& report) {
  const repro::Json* benchmarks = report.find("benchmarks");
  if (benchmarks == nullptr || !benchmarks->is_array()) return -1.0;
  std::vector<double> times;
  for (const repro::Json& entry : benchmarks->as_array()) {
    if (!entry.is_object()) continue;
    const repro::Json* errored = entry.find("error_occurred");
    if (errored != nullptr && errored->is_bool() && errored->as_bool()) continue;
    const repro::Json* real_time = entry.find("real_time");
    if (real_time == nullptr || !real_time->is_number()) continue;
    double scale = 1.0;
    const repro::Json* unit = entry.find("time_unit");
    if (unit != nullptr && unit->is_string()) scale = unit_to_ns(unit->as_string());
    times.push_back(real_time->as_double() * scale);
  }
  if (times.empty()) return -1.0;
  std::sort(times.begin(), times.end());
  const std::size_t mid = times.size() / 2;
  if (times.size() % 2 == 1) return times[mid];
  return 0.5 * (times[mid - 1] + times[mid]);
}

struct Headline {
  std::string suite;
  double median_ns = -1.0;
  std::size_t benchmarks = 0;
};

std::size_t benchmark_count(const repro::Json& report) {
  const repro::Json* benchmarks = report.find("benchmarks");
  if (benchmarks == nullptr || !benchmarks->is_array()) return 0;
  return benchmarks->as_array().size();
}

/// Per-suite headline medians of a merged BENCH_micro document.
std::vector<Headline> headlines_of(const repro::Json& merged) {
  std::vector<Headline> headlines;
  const repro::Json* suites = merged.find("suites");
  if (suites == nullptr || !suites->is_array()) return headlines;
  for (const repro::Json& entry : suites->as_array()) {
    if (!entry.is_object()) continue;
    const repro::Json* suite = entry.find("suite");
    const repro::Json* report = entry.find("report");
    if (suite == nullptr || !suite->is_string() || report == nullptr) continue;
    headlines.push_back({suite->as_string(), headline_median_ns(*report),
                         benchmark_count(*report)});
  }
  return headlines;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Current date (UTC, YYYY-MM-DD). bench/micro/ is on the wall-clock
/// allowlist: the stamp labels a perf artifact and never feeds results.
std::string today_utc() {
  const std::time_t now = std::time(nullptr);
  std::tm utc{};
  gmtime_r(&now, &utc);
  char buffer[16];
  std::strftime(buffer, sizeof(buffer), "%Y-%m-%d", &utc);
  return buffer;
}

std::string git_revision() {
  std::string rev = run_command("git rev-parse --short HEAD 2>/dev/null");
  while (!rev.empty() && (rev.back() == '\n' || rev.back() == '\r')) rev.pop_back();
  return rev.empty() ? "unknown" : rev;
}

void json_escape(std::string& out, const std::string& text) {
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
}

std::string format_history_entry(const std::string& date, const std::string& rev,
                                 bool smoke, const std::vector<Headline>& headlines) {
  std::string out = "    {\"date\": \"";
  json_escape(out, date);
  out += "\", \"rev\": \"";
  json_escape(out, rev);
  out += std::string("\", \"smoke\": ") + (smoke ? "true" : "false");
  out += ", \"headlines\": [";
  bool first = true;
  for (const Headline& headline : headlines) {
    if (!first) out += ", ";
    first = false;
    out += "{\"suite\": \"";
    json_escape(out, headline.suite);
    char number[64];
    std::snprintf(number, sizeof(number), "%.1f", headline.median_ns);
    out += std::string("\", \"median_ns\": ") + number +
           ", \"benchmarks\": " + std::to_string(headline.benchmarks) + "}";
  }
  out += "]}";
  return out;
}

/// Re-serialize the prior runs' history entries from the existing --out
/// file (schema-known fields only; anything unparseable is dropped with a
/// note rather than propagated corrupt).
std::vector<std::string> prior_history_entries(const std::string& out_path) {
  std::vector<std::string> entries;
  const std::string text = read_file(out_path);
  if (text.empty()) return entries;
  try {
    const repro::Json merged = repro::Json::parse(text);
    const repro::Json* history = merged.find("history");
    if (history == nullptr || !history->is_array()) return entries;
    for (const repro::Json& entry : history->as_array()) {
      if (!entry.is_object()) continue;
      const repro::Json* date = entry.find("date");
      const repro::Json* rev = entry.find("rev");
      const repro::Json* smoke = entry.find("smoke");
      const repro::Json* headlines = entry.find("headlines");
      if (date == nullptr || !date->is_string() || rev == nullptr ||
          !rev->is_string()) {
        continue;
      }
      std::vector<Headline> parsed;
      if (headlines != nullptr && headlines->is_array()) {
        for (const repro::Json& h : headlines->as_array()) {
          if (!h.is_object()) continue;
          const repro::Json* suite = h.find("suite");
          const repro::Json* median = h.find("median_ns");
          const repro::Json* count = h.find("benchmarks");
          if (suite == nullptr || !suite->is_string() || median == nullptr ||
              !median->is_number()) {
            continue;
          }
          Headline headline{suite->as_string(), median->as_double(), 0};
          if (count != nullptr && count->is_number()) {
            headline.benchmarks = static_cast<std::size_t>(count->as_int64());
          }
          parsed.push_back(headline);
        }
      }
      const bool was_smoke =
          smoke != nullptr && smoke->is_bool() && smoke->as_bool();
      entries.push_back(format_history_entry(date->as_string(), rev->as_string(),
                                             was_smoke, parsed));
    }
  } catch (const std::exception& error) {
    std::cerr << "bench_micro: existing " << out_path
              << " unparseable, starting fresh history (" << error.what()
              << ")\n";
  }
  return entries;
}

/// 3x-envelope regression comparison against a baseline merged document.
/// Suites absent from the baseline (newly added) are reported and skipped.
int check_against_baseline(const std::string& baseline_path,
                           const std::vector<Headline>& current) {
  const std::string text = read_file(baseline_path);
  if (text.empty()) {
    std::cerr << "bench_micro: cannot read baseline " << baseline_path << "\n";
    return 1;
  }
  std::vector<Headline> baseline;
  try {
    baseline = headlines_of(repro::Json::parse(text));
  } catch (const std::exception& error) {
    std::cerr << "bench_micro: baseline unparseable: " << error.what() << "\n";
    return 1;
  }
  constexpr double kTolerance = 3.0;
  int failures = 0;
  for (const Headline& now : current) {
    const auto it =
        std::find_if(baseline.begin(), baseline.end(),
                     [&](const Headline& b) { return b.suite == now.suite; });
    if (it == baseline.end() || it->median_ns <= 0.0) {
      std::cerr << "bench_micro: check " << now.suite
                << ": no baseline (new suite?) — skipped\n";
      continue;
    }
    const double ratio = now.median_ns / it->median_ns;
    const bool failed = ratio > kTolerance;
    std::fprintf(stderr,
                 "bench_micro: check %-16s median %12.1f ns vs baseline "
                 "%12.1f ns (x%.2f) %s\n",
                 now.suite.c_str(), now.median_ns, it->median_ns, ratio,
                 failed ? "FAIL" : "ok");
    if (failed) ++failures;
  }
  if (failures > 0) {
    std::cerr << "bench_micro: " << failures
              << " suite(s) regressed beyond the 3x envelope\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      options.out = argv[++i];
    } else if (arg == "--bin-dir" && i + 1 < argc) {
      options.bin_dir = argv[++i];
    } else if (arg == "--check" && i + 1 < argc) {
      options.check = argv[++i];
    } else {
      std::cerr << "usage: bench_micro [--smoke] [--out FILE] [--bin-dir DIR] "
                   "[--check BASELINE]\n";
      return 2;
    }
  }
  if (options.bin_dir.empty()) {
    options.bin_dir = std::filesystem::path(argv[0]).parent_path().string();
    if (options.bin_dir.empty()) options.bin_dir = ".";
  }

  // Prior history must be read before the merge overwrites --out.
  const std::vector<std::string> history = prior_history_entries(options.out);

  std::string merged = "{\n  \"driver\": \"bench_micro\",\n";
  merged += std::string("  \"smoke\": ") + (options.smoke ? "true" : "false") + ",\n";
  merged += "  \"suites\": [\n";

  std::vector<Headline> headlines;
  bool first = true;
  for (const char* suite : kSuites) {
    const std::filesystem::path binary =
        std::filesystem::path(options.bin_dir) / suite;
    std::string command = binary.string() + " --benchmark_format=json";
    if (options.smoke) command += " --benchmark_min_time=0.01";
    command += " 2>/dev/null";

    std::cerr << "bench_micro: running " << suite
              << (options.smoke ? " (smoke)" : "") << "\n";
    const std::string report = run_command(command);
    if (report.empty()) {
      std::cerr << "bench_micro: " << suite << " failed to run (" << command
                << ")\n";
      return 1;
    }
    if (!looks_like_benchmark_json(report)) {
      std::cerr << "bench_micro: " << suite << " produced malformed JSON\n";
      return 1;
    }
    try {
      const repro::Json parsed = repro::Json::parse(report);
      headlines.push_back(
          {suite, headline_median_ns(parsed), benchmark_count(parsed)});
    } catch (const std::exception& error) {
      std::cerr << "bench_micro: " << suite
                << " report failed to parse: " << error.what() << "\n";
      return 1;
    }
    if (!first) merged += ",\n";
    first = false;
    merged += "    {\n      \"suite\": \"" + std::string(suite) + "\",\n";
    merged += "      \"report\":\n";
    merged += indent(report, "        ");
    if (merged.back() == '\n') merged.pop_back();
    merged += "\n    }";
  }
  merged += "\n  ],\n";

  merged += "  \"history\": [\n";
  for (const std::string& entry : history) merged += entry + ",\n";
  merged += format_history_entry(today_utc(), git_revision(), options.smoke,
                                 headlines);
  merged += "\n  ]\n}\n";

  if (!looks_like_benchmark_json(merged)) {
    std::cerr << "bench_micro: merged document failed validation\n";
    return 1;
  }
  std::ofstream out(options.out, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::cerr << "bench_micro: cannot open " << options.out << " for writing\n";
    return 1;
  }
  out << merged;
  out.close();
  std::cerr << "bench_micro: wrote " << options.out << " ("
            << history.size() + 1 << " history entries)\n";

  if (!options.check.empty()) {
    return check_against_baseline(options.check, headlines);
  }
  return 0;
}
