#pragma once
// The benchmark's workloads. Each fills a Report with its end-to-end
// metrics, output checks and per-phase operation counts; a traced run adds
// per-layer metrics measured from spans around calls into each layer's
// public functions.

#include <cstdint>
#include <string>

#include "bench.hpp"

namespace perfbench {

struct StudyArgs {
  std::uint64_t seed = 1592653589;
  double seconds = 15.0;
  bool trace = false;
  /// Traced mini-campaign only (per-layer metrics of the study layers for a
  /// workload that does not exercise them); no end-to-end metrics.
  bool mini = false;
  /// Committed fig2 CSV whose titanv rows the paper seed must reproduce.
  std::string golden_csv;
  std::string trace_path;  ///< where a traced run writes its spans
};

/// study-fig2: run_study plus the fig2/fig3/fig4a/fig4b aggregation for the
/// five paper algorithms on add, harris and mandelbrot x titanv.
void run_study_workload(const StudyArgs& args, Report& report);

struct ServeArgs {
  std::string workload;  ///< "serve-tell" or "serve-bogp-warm"
  std::uint64_t seed = 1;
  double seconds = 15.0;
  double warmup_seconds = 1.0;
  bool trace = false;
  std::uint16_t router_port = 0;
  std::uint16_t primary_port = 0;
  /// A standby of its own for the in-process SessionManager and WalShipper
  /// layer replays (traced runs only).
  std::uint16_t probe_standby_port = 0;
  int primary_pid = 0;
  int standby_pid = 0;
  int router_pid = 0;
  std::string scratch_dir;  ///< state for the in-process layer replays
  std::string trace_path;
};

/// serve-tell / serve-bogp-warm: four closed-loop connections through
/// tunelb to a primary tuned shipping to a hot standby.
void run_serve_workload(const ServeArgs& args, Report& report);

}  // namespace perfbench
