#pragma once
// Shared pieces of the perfbench load process: clocks and percentiles, the
// in-memory span recorder of traced runs, /proc readers for the daemons, and
// the result sink that main() prints as one JSON line.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}
[[nodiscard]] inline double micros_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// Linearly interpolated percentile, p in [0, 1]; NaN when empty.
[[nodiscard]] double percentile(std::vector<double> values, double p);
[[nodiscard]] inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

/// Spans of one traced run, kept in memory and written out at exit. A span
/// has a name, start, end, parent span and operation id; a layer's self time
/// is its span minus the time its child spans cover.
class Trace {
 public:
  static constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

  std::size_t begin(std::string_view name, std::size_t parent, std::uint64_t op);
  void end(std::size_t id);

  [[nodiscard]] std::size_t count(std::string_view name) const;
  /// Summed duration of the spans named `name`, in seconds.
  [[nodiscard]] double total_s(std::string_view name) const;
  /// Summed self time (duration minus direct children) of spans named `name`.
  [[nodiscard]] double self_s(std::string_view name) const;
  /// One JSON object per span: name, start_ns, end_ns, parent, op.
  bool write_jsonl(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;
    std::size_t parent = kNone;
    std::uint64_t op = 0;
  };
  [[nodiscard]] std::int64_t now_ns() const;

  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  const Clock::time_point epoch_ = Clock::now();
};

/// RAII span; a null trace records nothing (untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(Trace* trace, std::string_view name, std::size_t parent, std::uint64_t op)
      : trace_(trace), id_(trace != nullptr ? trace->begin(name, parent, op) : Trace::kNone) {}
  ~ScopedSpan() {
    if (trace_ != nullptr) trace_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] std::size_t id() const noexcept { return id_; }

 private:
  Trace* trace_;
  std::size_t id_;
};

/// Counters of one process read from /proc/<pid>: CPU time, bytes and calls
/// of write(2) to files (sockets use send(2) and are not counted), and the
/// peak resident set.
struct ProcSample {
  double cpu_ms = 0.0;
  std::uint64_t write_bytes = 0;  ///< wchar
  std::uint64_t write_calls = 0;  ///< syscw
  double peak_rss_mb = 0.0;       ///< VmHWM
};
[[nodiscard]] ProcSample read_proc(int pid);

/// Operations one phase sent, and how many succeeded or failed.
struct Phase {
  std::size_t sent = 0;
  std::size_t ok = 0;
  std::size_t failed = 0;
  void add(bool success) {
    ++sent;
    ++(success ? ok : failed);
  }
  void merge(const Phase& other) {
    sent += other.sent;
    ok += other.ok;
    failed += other.failed;
  }
};

/// Everything one pbload invocation reports. The result's attempted and
/// failed totals sum every phase.
class Report {
 public:
  void metric(const std::string& name, double value, std::size_t samples);
  void layer(const std::string& name, double value);
  void note(const std::string& line) { notes_.push_back(line); }
  Phase& phase(const std::string& name) { return phases_[name]; }
  /// Record an output check; a failed one counts one failed operation.
  void check(const std::string& name, bool passed, const std::string& detail = {});

  [[nodiscard]] repro::Json to_json() const;

 private:
  std::map<std::string, std::pair<double, std::size_t>> metrics_;
  std::map<std::string, double> layers_;
  std::map<std::string, Phase> phases_;
  std::vector<std::string> notes_;
};

}  // namespace perfbench
