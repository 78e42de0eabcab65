#include "reprolint.hpp"

#include <algorithm>
#include <set>

namespace reprolint {

namespace {

// Tokenizer, NOLINT parsing, allowlist filtering and JSON output come from
// tools/lintcore; this file is only the determinism rules.

using lintcore::Lexed;
using lintcore::TokKind;
using lintcore::Token;

using lintcore::before_qualifier;
using lintcore::is;
using lintcore::is_ident;
using lintcore::prev_is_member;
using lintcore::prev_is_scope;
using lintcore::skip_template_args;

/// Lex for reprolint. The determinism rules predate string tokens and never
/// inspect literal contents, so kString tokens are dropped to keep every
/// token-adjacency pattern (`is(t, i + 1, "(")` etc.) exactly as before.
Lexed lex(const std::string& src) {
  Lexed out = lintcore::lex(src, "reprolint");
  out.tokens.erase(
      std::remove_if(out.tokens.begin(), out.tokens.end(),
                     [](const Token& t) { return t.kind == TokKind::kString; }),
      out.tokens.end());
  return out;
}

void emit(const std::string& path, const Lexed& lx, int line,
          const std::string& rule, const std::string& message,
          const Options& options, Report& report) {
  lintcore::emit(path, lx, line, rule, message, options.allow, report);
}

const std::set<std::string>& libc_rand_names() {
  static const std::set<std::string> names = {
      "rand", "srand", "rand_r", "drand48", "lrand48", "mrand48", "srandom"};
  return names;
}

const std::set<std::string>& clock_type_names() {
  static const std::set<std::string> names = {
      "system_clock", "steady_clock", "high_resolution_clock", "utc_clock",
      "file_clock", "tai_clock", "gps_clock"};
  return names;
}

const std::set<std::string>& clock_call_names() {
  static const std::set<std::string> names = {"gettimeofday", "clock_gettime",
                                              "timespec_get", "ftime"};
  return names;
}

const std::set<std::string>& engine_names() {
  static const std::set<std::string> names = {
      "mt19937",      "mt19937_64",    "minstd_rand", "minstd_rand0",
      "ranlux24",     "ranlux48",      "ranlux24_base", "ranlux48_base",
      "knuth_b",      "default_random_engine"};
  return names;
}

const std::set<std::string>& distribution_names() {
  static const std::set<std::string> names = {
      "uniform_int_distribution",   "uniform_real_distribution",
      "normal_distribution",        "lognormal_distribution",
      "bernoulli_distribution",     "binomial_distribution",
      "geometric_distribution",     "negative_binomial_distribution",
      "poisson_distribution",       "exponential_distribution",
      "gamma_distribution",         "weibull_distribution",
      "extreme_value_distribution", "cauchy_distribution",
      "chi_squared_distribution",   "fisher_f_distribution",
      "student_t_distribution",     "discrete_distribution",
      "piecewise_constant_distribution", "piecewise_linear_distribution"};
  return names;
}

const std::set<std::string>& simd_reduce_names() {
  // Horizontal SIMD float reductions: the lane-combination order is fixed by
  // the instruction, not by the source loop, so swapping dispatch tiers (or
  // compilers) silently reassociates the sum. The ordered alternative is a
  // scalar left-to-right accumulation (simd::seq in common/simd.hpp); a use
  // that pins and documents its combination order carries a justified
  // NOLINT.
  static const std::set<std::string> names = {
      "_mm_hadd_ps",          "_mm_hadd_pd",
      "_mm256_hadd_ps",       "_mm256_hadd_pd",
      "_mm512_reduce_add_ps", "_mm512_reduce_add_pd",
      "vaddvq_f32",           "vaddvq_f64"};
  return names;
}

/// Explicit fused multiply-add: one rounding where the scalar reference
/// (and every committed figure) rounds the product and the sum separately,
/// so a kernel that uses one can no longer equal its reference bit for bit.
bool is_fused_multiply_add(const std::string& id) {
  if (id == "fma" || id == "fmaf" || id == "fmal") return true;
  if (id.rfind("__builtin_fma", 0) == 0) return true;
  if (id.rfind("_mm", 0) != 0) return false;
  static const char* const kOps[] = {"_fmadd_",    "_fmsub_",    "_fnmadd_",
                                     "_fnmsub_",   "_fmaddsub_", "_fmsubadd_"};
  for (const char* op : kOps) {
    if (id.find(op) != std::string::npos) return true;
  }
  return false;
}

const std::set<std::string>& unordered_container_names() {
  static const std::set<std::string> names = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  return names;
}

}  // namespace

const std::vector<std::string>& rule_names() {
  static const std::vector<std::string> names = {
      "reprolint-rand",
      "reprolint-random-device",
      "reprolint-wall-clock",
      "reprolint-unseeded-rng",
      "reprolint-nonportable-random",
      "reprolint-unordered-iteration",
      "reprolint-nondet-reduction",
      "reprolint-raw-thread",
      "reprolint-fused-multiply-add"};
  return names;
}

Options default_options() {
  Options options;
  // Wall-clock reads that never feed experiment results: log-line
  // timestamps, socket timeout plumbing, benchmark timers, test deadlines.
  options.allow.emplace_back("reprolint-wall-clock", "src/common/log.");
  options.allow.emplace_back("reprolint-wall-clock", "src/common/socket.");
  options.allow.emplace_back("reprolint-wall-clock", "bench/micro/");
  options.allow.emplace_back("reprolint-wall-clock", "tests/");
  // The service layer is liveness plumbing, not measurement: request
  // deadlines, idle-connection reaping, retry backoff, heartbeat pacing,
  // session idle-eviction, tunelb's shard health probes / probe-failure
  // thresholds, and the WAL shipper's RPC deadlines all read the monotonic
  // clock by design. No timestamp ever reaches a tuning result — search
  // and evaluation stay wall-clock-free, which the rest of the lint still
  // enforces.
  options.allow.emplace_back("reprolint-wall-clock", "src/service/");
  // The results store logs one load-time diagnostic (records/ms recovered
  // at startup). The elapsed time is printed and discarded: stored records,
  // eviction order and the store digest are pure functions of the append
  // stream, never of the clock.
  options.allow.emplace_back("reprolint-wall-clock", "src/store/");
  // loadgen measures the service itself (latency percentiles, failover
  // blackout): wall-clock reads and driver threads are its entire point,
  // and its output is BENCH_service.json, never a tuning result.
  options.allow.emplace_back("reprolint-wall-clock", "tools/loadgen/");
  options.allow.emplace_back("reprolint-raw-thread", "tools/loadgen/");
  // The pool implementation is the one sanctioned owner of raw threads;
  // tests spawn driver threads deliberately (race stress, loopback clients).
  options.allow.emplace_back("reprolint-raw-thread", "src/common/thread_pool.");
  options.allow.emplace_back("reprolint-raw-thread", "tests/");
  return options;
}

void collect_unordered_names(const std::string& content,
                             std::unordered_set<std::string>& names) {
  const Lexed lx = lex(content);
  const auto& t = lx.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent ||
        unordered_container_names().count(t[i].text) == 0) {
      continue;
    }
    // Skip uses nested inside another template's argument list
    // (e.g. std::map<K, std::unordered_set<V>> is ordered at the top level).
    const std::size_t q = before_qualifier(t, i);
    if (q >= 1 && (t[q - 1].text == "<" || t[q - 1].text == ",")) continue;
    std::size_t j = skip_template_args(t, i + 1);
    while (is(t, j, "&") || is(t, j, "*") || is(t, j, "const")) ++j;
    if (is_ident(t, j)) names.insert(t[j].text);
  }
}

void lint_content(const std::string& path, const std::string& content,
                  const Options& options, Report& report) {
  ++report.files_scanned;
  const Lexed lx = lex(content);
  const auto& t = lx.tokens;

  // Local declarations join the cross-file set for the iteration rule.
  std::unordered_set<std::string> unordered = options.unordered_names;
  collect_unordered_names(content, unordered);

  // #pragma omp ... reduction(...) accumulates in thread order.
  for (std::size_t li = 0; li < lx.lines.size(); ++li) {
    const std::string& line = lx.lines[li];
    if (line.find("#pragma") != std::string::npos &&
        line.find("omp") != std::string::npos &&
        line.find("reduction") != std::string::npos) {
      emit(path, lx, static_cast<int>(li + 1), "reprolint-nondet-reduction",
           "OpenMP reduction accumulates in nondeterministic thread order",
           options, report);
    }
  }

  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent) continue;
    const std::string& id = t[i].text;
    const int line = t[i].line;

    // --- reprolint-rand -----------------------------------------------------
    if (libc_rand_names().count(id) != 0 && is(t, i + 1, "(") &&
        !prev_is_member(t, i)) {
      emit(path, lx, line, "reprolint-rand",
           id + "() draws from hidden global state; use repro::Rng with a "
                "derived seed",
           options, report);
      continue;
    }

    // --- reprolint-random-device -------------------------------------------
    if (id == "random_device") {
      emit(path, lx, line, "reprolint-random-device",
           "std::random_device is nondeterministic; derive seeds with "
           "repro::seed_combine",
           options, report);
      continue;
    }

    // --- reprolint-wall-clock ----------------------------------------------
    if (clock_type_names().count(id) != 0 && is(t, i + 1, ":") &&
        is(t, i + 2, ":") && is(t, i + 3, "now")) {
      emit(path, lx, line, "reprolint-wall-clock",
           "std::chrono::" + id + "::now() outside the timing allowlist; "
           "results must not depend on wall time",
           options, report);
      continue;
    }
    if (clock_call_names().count(id) != 0 && is(t, i + 1, "(")) {
      emit(path, lx, line, "reprolint-wall-clock",
           id + "() reads the wall clock; results must not depend on wall time",
           options, report);
      continue;
    }
    if ((id == "time" || id == "clock") && is(t, i + 1, "(") &&
        prev_is_scope(t, i)) {
      emit(path, lx, line, "reprolint-wall-clock",
           "std::" + id + "() reads the wall clock; results must not depend "
           "on wall time",
           options, report);
      continue;
    }

    // --- reprolint-unseeded-rng --------------------------------------------
    if (engine_names().count(id) != 0) {
      bool unseeded = false;
      if (is(t, i + 1, "(") && is(t, i + 2, ")")) unseeded = true;
      if (is(t, i + 1, "{") && is(t, i + 2, "}")) unseeded = true;
      if (is_ident(t, i + 1)) {
        if (is(t, i + 2, ";") || (is(t, i + 2, "{") && is(t, i + 3, "}")) ||
            (is(t, i + 2, "(") && is(t, i + 3, ")"))) {
          unseeded = true;
        }
      }
      if (unseeded) {
        emit(path, lx, line, "reprolint-unseeded-rng",
             "std::" + id + " constructed without an explicit seed",
             options, report);
        continue;
      }
      // Seeded <random> engines still produce implementation-portable bits,
      // but their *distributions* do not — caught below when one is named.
    }

    // --- reprolint-nonportable-random --------------------------------------
    if ((id == "shuffle" || id == "random_shuffle") && prev_is_scope(t, i)) {
      emit(path, lx, line, "reprolint-nonportable-random",
           "std::" + id + " permutation order is implementation-defined; use "
           "repro::Rng::shuffle",
           options, report);
      continue;
    }
    if (distribution_names().count(id) != 0) {
      emit(path, lx, line, "reprolint-nonportable-random",
           "std::" + id + " streams differ across standard libraries; use "
           "repro::Rng distributions",
           options, report);
      continue;
    }

    // --- reprolint-unordered-iteration -------------------------------------
    if (id == "for" && is(t, i + 1, "(")) {
      int depth = 0;
      std::size_t colon = 0;
      std::size_t close = 0;
      for (std::size_t j = i + 1; j < t.size(); ++j) {
        if (t[j].text == "(") ++depth;
        if (t[j].text == ")") {
          --depth;
          if (depth == 0) {
            close = j;
            break;
          }
        }
        if (depth == 1 && t[j].text == ":" && colon == 0 &&
            !is(t, j + 1, ":") && !is(t, j - 1, ":")) {
          colon = j;
        }
      }
      if (colon != 0 && close != 0) {
        for (std::size_t j = colon + 1; j < close; ++j) {
          if (t[j].kind != TokKind::kIdent) continue;
          const bool direct =
              unordered_container_names().count(t[j].text) != 0;
          if (direct || unordered.count(t[j].text) != 0) {
            emit(path, lx, t[i].line, "reprolint-unordered-iteration",
                 "range-for over unordered container '" + t[j].text +
                     "'; iteration order is unspecified and must not feed "
                     "results/CSV/protocol output",
                 options, report);
            break;
          }
        }
      }
    }

    // --- reprolint-nondet-reduction ----------------------------------------
    if (id == "atomic" && is(t, i + 1, "<")) {
      std::size_t j = i + 2;
      if (is(t, j, "std")) j += 3;  // std :: type
      const bool floaty = is(t, j, "float") || is(t, j, "double") ||
                          (is(t, j, "long") && is(t, j + 1, "double"));
      if (floaty) {
        emit(path, lx, line, "reprolint-nondet-reduction",
             "std::atomic floating-point accumulation commits in "
             "nondeterministic order; reduce over an indexed buffer instead",
             options, report);
        continue;
      }
    }
    if ((id == "reduce" || id == "transform_reduce") && prev_is_scope(t, i)) {
      emit(path, lx, line, "reprolint-nondet-reduction",
           "std::" + id + " may reassociate floating-point terms; use an "
           "ordered accumulation",
           options, report);
      continue;
    }
    if (simd_reduce_names().count(id) != 0 && is(t, i + 1, "(")) {
      emit(path, lx, line, "reprolint-nondet-reduction",
           id + " combines SIMD lanes in hardware order; use an ordered "
           "scalar accumulation (simd::seq) or justify with NOLINT",
           options, report);
      continue;
    }
    if ((id == "par" || id == "par_unseq" || id == "unseq") &&
        prev_is_scope(t, i) && i >= 3 && t[i - 3].text == "execution") {
      emit(path, lx, line, "reprolint-nondet-reduction",
           "parallel execution policy reorders reductions nondeterministically",
           options, report);
      continue;
    }

    // --- reprolint-fused-multiply-add --------------------------------------
    if (is_fused_multiply_add(id) && is(t, i + 1, "(") && !prev_is_member(t, i)) {
      emit(path, lx, line, "reprolint-fused-multiply-add",
           id + " rounds the multiply and the add once; the reference path "
           "rounds each, so results stop matching it bit for bit",
           options, report);
      continue;
    }

    // --- reprolint-raw-thread ----------------------------------------------
    if ((id == "thread" || id == "jthread") && prev_is_scope(t, i) &&
        !is(t, i + 1, ":")) {  // std::thread::hardware_concurrency is a query
      emit(path, lx, line, "reprolint-raw-thread",
           "raw std::" + id + " bypasses repro::ThreadPool (unbounded "
           "parallelism, no nesting guard)",
           options, report);
      continue;
    }
    if (id == "async" && prev_is_scope(t, i) && is(t, i + 1, "(")) {
      emit(path, lx, line, "reprolint-raw-thread",
           "std::async spawns unmanaged threads; submit to repro::ThreadPool",
           options, report);
      continue;
    }
    if (id == "pthread_create") {
      emit(path, lx, line, "reprolint-raw-thread",
           "pthread_create bypasses repro::ThreadPool",
           options, report);
      continue;
    }
  }
}

bool lint_file(const std::string& path, const Options& options,
               Report& report) {
  std::string content;
  if (!lintcore::read_file(path, content)) return false;
  lint_content(path, content, options, report);
  return true;
}

std::string to_json(const Report& report) {
  return lintcore::to_json(report, "reprolint");
}

}  // namespace reprolint
