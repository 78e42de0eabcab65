#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <unistd.h>

namespace perfbench {

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

// --- Trace -----------------------------------------------------------------

std::int64_t Trace::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_)
      .count();
}

std::size_t Trace::begin(std::string_view name, std::size_t parent, std::uint64_t op) {
  const std::int64_t start = now_ns();
  std::lock_guard lock(mutex_);
  spans_.push_back(Span{std::string(name), start, -1, parent, op});
  return spans_.size() - 1;
}

void Trace::end(std::size_t id) {
  const std::int64_t stop = now_ns();
  std::lock_guard lock(mutex_);
  spans_[id].end_ns = stop;
}

std::size_t Trace::count(std::string_view name) const {
  std::lock_guard lock(mutex_);
  return static_cast<std::size_t>(std::count_if(
      spans_.begin(), spans_.end(), [&](const Span& s) { return s.name == name; }));
}

double Trace::total_s(std::string_view name) const {
  std::lock_guard lock(mutex_);
  std::int64_t total = 0;
  for (const Span& s : spans_) {
    if (s.name == name) total += s.end_ns - s.start_ns;
  }
  return static_cast<double>(total) * 1e-9;
}

double Trace::self_s(std::string_view name) const {
  std::lock_guard lock(mutex_);
  std::vector<std::int64_t> children(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent != kNone) children[s.parent] += s.end_ns - s.start_ns;
  }
  std::int64_t total = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) total += spans_[i].end_ns - spans_[i].start_ns - children[i];
  }
  return static_cast<double>(total) * 1e-9;
}

bool Trace::write_jsonl(const std::string& path) const {
  std::lock_guard lock(mutex_);
  std::ofstream out(path, std::ios::trunc);
  for (const Span& s : spans_) {
    repro::Json line = repro::Json::object();
    line.set("name", s.name);
    line.set("start_ns", static_cast<long long>(s.start_ns));
    line.set("end_ns", static_cast<long long>(s.end_ns));
    line.set("parent", s.parent == kNone ? repro::Json() : repro::Json(s.parent));
    line.set("op", static_cast<unsigned long long>(s.op));
    out << line.dump() << '\n';
  }
  return static_cast<bool>(out);
}

// --- /proc -----------------------------------------------------------------

namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Value of a "key: value" line of /proc/<pid>/{io,status}; 0 when absent.
std::uint64_t field(const std::string& text, const std::string& key) {
  const std::size_t at = text.find("\n" + key + ":");
  const std::size_t start = at == std::string::npos
                                ? (text.rfind(key + ":", 0) == 0 ? 0 : std::string::npos)
                                : at + 1;
  if (start == std::string::npos) return 0;
  return std::strtoull(text.c_str() + start + key.size() + 1, nullptr, 10);
}

}  // namespace

ProcSample read_proc(int pid) {
  const std::string base = "/proc/" + std::to_string(pid);
  ProcSample sample;
  // /proc/<pid>/stat: fields 14 and 15 (utime, stime) follow the ")" that
  // closes the command name, which may itself contain spaces.
  const std::string stat = slurp(base + "/stat");
  const std::size_t close = stat.rfind(')');
  if (close != std::string::npos) {
    std::istringstream rest(stat.substr(close + 2));
    std::string token;
    double ticks = 0.0;
    for (int index = 3; index <= 15 && rest >> token; ++index) {
      if (index >= 14) ticks += std::strtod(token.c_str(), nullptr);
    }
    sample.cpu_ms = ticks * 1000.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
  }
  const std::string io = slurp(base + "/io");
  sample.write_bytes = field(io, "wchar");
  sample.write_calls = field(io, "syscw");
  sample.peak_rss_mb = static_cast<double>(field(slurp(base + "/status"), "VmHWM")) / 1024.0;
  return sample;
}

// --- Report ----------------------------------------------------------------

void Report::metric(const std::string& name, double value, std::size_t samples) {
  metrics_[name] = {value, samples};
}

void Report::layer(const std::string& name, double value) { layers_[name] = value; }

void Report::check(const std::string& name, bool passed, const std::string& detail) {
  phase("check").add(passed);
  if (!passed) note("check failed: " + name + (detail.empty() ? "" : ": " + detail));
}

repro::Json Report::to_json() const {
  repro::Json metrics = repro::Json::object();
  for (const auto& [name, entry] : metrics_) {
    repro::Json one = repro::Json::object();
    one.set("value", entry.first);
    one.set("samples", entry.second);
    metrics.set(name, std::move(one));
  }
  repro::Json layers = repro::Json::object();
  for (const auto& [name, value] : layers_) layers.set(name, value);
  repro::Json phases = repro::Json::object();
  std::size_t attempted = 0;
  std::size_t failed = 0;
  for (const auto& [name, phase] : phases_) {
    repro::Json one = repro::Json::object();
    one.set("sent", phase.sent);
    one.set("ok", phase.ok);
    one.set("failed", phase.failed);
    phases.set(name, std::move(one));
    attempted += phase.sent;
    failed += phase.failed;
  }
  repro::Json notes = repro::Json::array();
  for (const std::string& line : notes_) notes.push_back(line);
  repro::Json out = repro::Json::object();
  out.set("attempted", attempted);
  out.set("failed", failed);
  out.set("metrics", std::move(metrics));
  out.set("layers", std::move(layers));
  out.set("phases", std::move(phases));
  out.set("notes", std::move(notes));
  return out;
}

}  // namespace perfbench
