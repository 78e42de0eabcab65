#pragma once
// reprolint — determinism & concurrency lint for this repository.
//
// The paper's statistics (E experiments per cell, Mann-Whitney U at
// alpha = 0.01) assume seeded, bit-repeatable experiments. Hidden
// nondeterminism — a stray rand(), a wall-clock read feeding a result, an
// unordered_map iteration order leaking into a CSV — silently invalidates
// them. reprolint scans the tree for those hazard patterns with a
// lightweight tokenizer (no libclang dependency) and fails the build when
// one appears outside an allowlisted context.
//
// Rules (diagnostic ids):
//   reprolint-rand               rand()/srand()/drand48()/... libc generators
//   reprolint-random-device      std::random_device (nondeterministic seed)
//   reprolint-wall-clock         wall/steady clock reads outside timing code
//   reprolint-unseeded-rng       <random> engine constructed without a seed
//   reprolint-nonportable-random std::shuffle / std <random> distributions
//                                (implementation-defined streams; use
//                                repro::Rng)
//   reprolint-unordered-iteration  range-for over unordered_{map,set}
//                                (iteration order is not part of the spec)
//   reprolint-nondet-reduction   float accumulation in nondeterministic
//                                order (atomic<float/double>, parallel
//                                std::reduce, omp reduction, horizontal
//                                SIMD reduce intrinsics — _mm*_hadd_p*,
//                                _mm512_reduce_add_p*, vaddvq — whose lane
//                                order is fixed by hardware, not source)
//   reprolint-raw-thread         std::thread/std::async/pthread_create
//                                bypassing repro::ThreadPool
//   reprolint-fused-multiply-add explicit FMA: _mm*_fmadd_* and its
//                                fmsub/fnmadd/fnmsub/fmaddsub/fmsubadd
//                                kin, std::fma/fma/fmaf/fmal,
//                                __builtin_fma* (one rounding where the
//                                reference and every committed CSV round
//                                the multiply and the add separately)
//
// Suppressions: `// NOLINT(reprolint-<rule>)` on the offending line or
// `// NOLINTNEXTLINE(reprolint-<rule>)` on the line above. A bare
// `NOLINT` (no list) or the list entry `reprolint` suppresses every rule.
// Every suppression in this tree must carry a one-line justification.

#include <cstddef>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "lintcore/lintcore.hpp"

namespace reprolint {

// Tokenizer, suppression handling and the report shape live in
// tools/lintcore (shared with svclint); reprolint contributes the rules.
using Finding = lintcore::Finding;
using Report = lintcore::Report;

struct Options {
  /// (rule, path-substring) pairs; rule "*" matches every rule. A finding
  /// whose file contains the substring is dropped before reporting.
  lintcore::AllowList allow;
  /// Identifiers declared as unordered containers anywhere in the scanned
  /// set (lint_tree fills this in a first pass so a range-for in server.cpp
  /// over a member declared in server.hpp is still caught).
  std::unordered_set<std::string> unordered_names;
};

/// The allowlist shipped with the repository (log timestamps, socket
/// timeouts, bench timers, the thread-pool implementation itself, test
/// driver threads). See docs/ANALYSIS.md for the rationale per entry.
[[nodiscard]] Options default_options();

/// All rule ids, in reporting order.
[[nodiscard]] const std::vector<std::string>& rule_names();

/// Collect identifiers declared as unordered_{map,set,multimap,multiset}
/// at the outermost template level of their declared type.
void collect_unordered_names(const std::string& content,
                             std::unordered_set<std::string>& names);

/// Lint one file's contents; appends findings and bumps counters.
void lint_content(const std::string& path, const std::string& content,
                  const Options& options, Report& report);

/// Read and lint a file on disk. Returns false when the file is unreadable.
bool lint_file(const std::string& path, const Options& options, Report& report);

/// Machine-readable report. Schema (stable, version-gated):
///   {"tool": "reprolint", "schema_version": 1, "files_scanned": N,
///    "suppressed": N, "findings": [{"file", "line", "rule", "message",
///    "snippet"}, ...]}
[[nodiscard]] std::string to_json(const Report& report);

}  // namespace reprolint
