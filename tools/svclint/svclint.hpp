#pragma once
// svclint — distributed-service invariant lint for this repository.
//
// The service layer's correctness claims (zero lost acknowledged tells
// across kill -9, byte-identical replay, documented lock discipline) rest
// on invariants no unit test states directly. svclint scans src/service/
// and src/store/ with the shared lintcore tokenizer (no libclang) and fails
// the build when one is broken:
//
//   svclint-lock-order   The acquisition graph extracted from
//                        repro::MutexLock sites (seeded with
//                        REQUIRES/EXCLUSIVE_LOCKS_REQUIRED preconditions,
//                        one level of direct-call inlining) must be acyclic
//                        and must not invert any edge declared in the order
//                        file (tools/svclint/lock_order.txt, `outer ->
//                        inner` per line).
//   svclint-durability   In session_wal.cpp / results_store.cpp /
//                        server.cpp / wal_ship.cpp / session_manager.cpp /
//                        frame_server.cpp, a frame write
//                        (write_frame / send_frame) must not appear before
//                        the function's first durability barrier — a direct
//                        fsync/fdatasync or a call reaching one (name-based
//                        call-graph closure). Functions with no barrier at
//                        all (pure network plumbing) are exempt.
//   svclint-wire-drift   The op table and error codes of protocol.cpp, the
//                        field tables of status_codec.cpp and the schema
//                        blocks in docs/SERVICE.md must agree: every
//                        documented op a row of the op table, every
//                        documented field present in the sources, every
//                        field-table row documented, every ErrorCode
//                        round-tripping through to_string/error_code_from
//                        and referenced outside protocol.*.
//
// Known analysis limits (documented in docs/ANALYSIS.md): calls are matched
// by name, so member calls whose name collides with a standard-library
// container/string method (.append, .find, ...) are not resolved, and lock
// nodes fall back to `Class.member` when neither the expression nor the
// enclosing class matches a declared node.
//
// Suppressions: `// NOLINT(svclint-<rule>)` on the offending line or
// `NOLINTNEXTLINE(...)` above it; `svclint` / `svclint-*` suppress every
// rule. Markdown docs may carry `<!-- NOLINT(svclint-wire-drift) -->`.
// Every suppression in this tree must carry a one-line justification.

#include <string>
#include <utility>
#include <vector>

#include "lintcore/lintcore.hpp"

namespace svclint {

using Finding = lintcore::Finding;
using Report = lintcore::Report;

/// One file of the analysis corpus (path as reported, full contents).
struct SourceFile {
  std::string path;
  std::string content;
};

struct Options {
  /// (rule, path-substring) pairs; rule "*" matches every rule.
  lintcore::AllowList allow;
  /// Declared lock order: (outer, inner) pairs — `outer` may be held while
  /// acquiring `inner`, never the reverse.
  std::vector<std::pair<std::string, std::string>> lock_order;
};

/// Empty allowlist, no declared edges (the CLI loads the order file).
[[nodiscard]] Options default_options();

/// All rule ids, in reporting order.
[[nodiscard]] const std::vector<std::string>& rule_names();

/// Parse an order file: one `outer -> inner` pair per line, `#` comments
/// and blank lines ignored. Returns false (with `error` set) on a
/// malformed line.
[[nodiscard]] bool parse_lock_order(
    const std::string& text,
    std::vector<std::pair<std::string, std::string>>& out, std::string& error);

/// Run all three rule families over a corpus. `sources` are C++ files
/// (file-scoped rules key on the path's basename: server.cpp,
/// protocol.hpp/.cpp, ...); `docs` are markdown files contributing schema
/// blocks to the wire-drift rule. The rules are cross-file, so one call
/// analyses the whole corpus.
[[nodiscard]] Report lint_corpus(const std::vector<SourceFile>& sources,
                                 const std::vector<SourceFile>& docs,
                                 const Options& options);

/// Machine-readable report; same versioned schema as reprolint with
/// "tool": "svclint".
[[nodiscard]] std::string to_json(const Report& report);

}  // namespace svclint
