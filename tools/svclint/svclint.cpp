#include "svclint.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <sstream>

namespace svclint {

namespace {

using lintcore::Lexed;
using lintcore::TokKind;
using lintcore::Token;

using lintcore::is;
using lintcore::is_ident;
using lintcore::prev_is_member;
using lintcore::prev_is_scope;

// ---------------------------------------------------------------------------
// Corpus model: every rule family is cross-file, so the corpus is lexed and
// segmented into functions once and the rules walk the shared result.
// ---------------------------------------------------------------------------

struct File {
  std::string path;
  std::string basename;
  Lexed lx;
};

std::string basename_of(const std::string& path) {
  const std::size_t slash = path.find_last_of("/\\");
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

bool is_keyword(const std::string& id) {
  static const std::set<std::string> kw = {
      "if",     "while",   "for",     "switch",        "catch",
      "return", "sizeof",  "new",     "delete",        "throw",
      "assert", "alignof", "typeid",  "static_assert", "decltype",
      "alignas", "co_await", "co_return", "co_yield"};
  return kw.count(id) != 0;
}

/// Returns the index one past the group's matching closer (t[open] must be
/// the opener), or t.size() when unbalanced.
std::size_t skip_group(const std::vector<Token>& t, std::size_t open,
                       const char* opener, const char* closer) {
  int depth = 0;
  std::size_t j = open;
  while (j < t.size()) {
    if (is(t, j, opener)) {
      ++depth;
    } else if (is(t, j, closer)) {
      --depth;
      if (depth == 0) return j + 1;
    }
    ++j;
  }
  return j;
}

// ---------------------------------------------------------------------------
// Function segmentation. Token-level: a candidate is `name (` outside any
// function body; the trailer after the matching `)` decides declaration vs
// definition (`;`/`=` vs `{`), skipping cv-qualifiers, noexcept(...),
// thread-safety annotations and constructor initializer lists. A class
// stack supplies the qualifier for inline member definitions; `Class::name`
// supplies it for out-of-line ones. Operator overloads are not segmented
// (no `name (` shape) — none of the audited invariants live there.
// ---------------------------------------------------------------------------

struct Function {
  std::string name;
  std::string qualifier;  ///< enclosing/prefixed class, "" for free functions
  std::size_t file = 0;   ///< index into the corpus file list
  std::size_t body_begin = 0;  ///< token index of the opening '{'
  std::size_t body_end = 0;    ///< one past the matching '}'
  std::vector<std::string> requires_args;  ///< REQUIRES(...) lock arguments
};

struct DeclRequires {  ///< REQUIRES on a body-less declaration (headers)
  std::string qualifier;
  std::string name;
  std::vector<std::string> args;
};

struct Segmented {
  std::vector<Function> functions;
  std::vector<DeclRequires> decl_requires;
};

void segment_file(const File& f, std::size_t file_index, Segmented& out) {
  const auto& t = f.lx.tokens;
  const std::size_t n = t.size();
  std::vector<std::pair<std::string, int>> class_stack;  // name, body depth
  int depth = 0;
  std::size_t i = 0;
  while (i < n) {
    if (is(t, i, "{")) {
      ++depth;
      ++i;
      continue;
    }
    if (is(t, i, "}")) {
      --depth;
      while (!class_stack.empty() && class_stack.back().second > depth) {
        class_stack.pop_back();
      }
      ++i;
      continue;
    }
    if (is_ident(t, i) && (t[i].text == "class" || t[i].text == "struct") &&
        !(i >= 1 && is(t, i - 1, "enum")) && is_ident(t, i + 1)) {
      // Find the class body '{' (skipping final / base clauses); forward
      // declarations and uses as a type specifier have none.
      const std::string cname = t[i + 1].text;
      std::size_t j = i + 2;
      bool found = false;
      while (j < n && j < i + 64) {
        if (is(t, j, "{")) {
          found = true;
          break;
        }
        if (is(t, j, ";") || is(t, j, "(") || is(t, j, ")") ||
            is(t, j, "}") || is(t, j, "=") || is(t, j, ">")) {
          break;
        }
        ++j;
      }
      if (found) {
        class_stack.emplace_back(cname, depth + 1);
        ++depth;
        i = j + 1;
        continue;
      }
      ++i;
      continue;
    }
    if (is_ident(t, i) && !is_keyword(t[i].text) && is(t, i + 1, "(") &&
        !prev_is_member(t, i)) {
      const std::string name = t[i].text;
      std::string qualifier;
      if (prev_is_scope(t, i)) {
        if (i >= 3 && is_ident(t, i - 3)) qualifier = t[i - 3].text;
      } else if (!class_stack.empty()) {
        qualifier = class_stack.back().first;
      }
      const std::size_t after_params = skip_group(t, i + 1, "(", ")");
      std::size_t k = after_params;
      std::vector<std::string> req;
      bool is_def = false;
      std::size_t body = 0;
      while (k < n) {
        if (is(t, k, "{")) {
          is_def = true;
          body = k;
          break;
        }
        if (is(t, k, ";") || is(t, k, "=") || is(t, k, "}")) break;
        if (is_ident(t, k) &&
            (t[k].text == "REQUIRES" ||
             t[k].text == "EXCLUSIVE_LOCKS_REQUIRED") &&
            is(t, k + 1, "(")) {
          const std::size_t req_end = skip_group(t, k + 1, "(", ")");
          for (std::size_t j = k + 2; j + 1 < req_end; ++j) {
            if (is_ident(t, j)) req.push_back(t[j].text);
          }
          k = req_end;
          continue;
        }
        if (is(t, k, "(")) {  // noexcept(...), other annotation macros
          k = skip_group(t, k, "(", ")");
          continue;
        }
        if (is(t, k, ":") && !is(t, k + 1, ":") &&
            !(k >= 1 && is(t, k - 1, ":"))) {
          // Constructor initializer list: member(...) / member{...} groups
          // up to the body '{' (which follows ')' or '}').
          std::size_t m = k + 1;
          while (m < n) {
            if (is(t, m, "(")) {
              m = skip_group(t, m, "(", ")");
              continue;
            }
            if (is(t, m, "{")) {
              if (m >= 1 && (is_ident(t, m - 1) || is(t, m - 1, ">"))) {
                m = skip_group(t, m, "{", "}");
                continue;
              }
              break;
            }
            if (is(t, m, ";")) break;
            ++m;
          }
          k = m;
          continue;
        }
        ++k;
      }
      if (is_def) {
        const std::size_t body_end = skip_group(t, body, "{", "}");
        out.functions.push_back(
            {name, qualifier, file_index, body, body_end, req});
        i = body_end;
        continue;
      }
      if (!req.empty()) out.decl_requires.push_back({qualifier, name, req});
      i = k < n ? k + 1 : n;
      continue;
    }
    ++i;
  }
}

struct Corpus {
  std::vector<File> files;
  Segmented seg;
  std::map<std::string, std::vector<std::size_t>> by_name;  // unqualified
};

// ---------------------------------------------------------------------------
// svclint-lock-order
// ---------------------------------------------------------------------------

/// Map a MutexLock argument expression to a graph node: a declared-order
/// node named in the expression or matching the enclosing class wins;
/// otherwise the node is `Class.member` (scoped so same-named members of
/// different classes stay distinct).
std::string lock_node(const Function& fn, const std::vector<Token>& t,
                      std::size_t expr_begin, std::size_t expr_end,
                      const std::set<std::string>& declared) {
  std::string first_ident;
  for (std::size_t j = expr_begin; j < expr_end; ++j) {
    if (!is_ident(t, j)) continue;
    if (declared.count(t[j].text) != 0) return t[j].text;
    if (first_ident.empty()) first_ident = t[j].text;
  }
  if (declared.count(fn.qualifier) != 0) return fn.qualifier;
  if (first_ident.empty()) {
    return fn.qualifier.empty() ? "<unknown>" : fn.qualifier;
  }
  return fn.qualifier.empty() ? first_ident
                              : fn.qualifier + "." + first_ident;
}

struct EdgeSite {
  std::size_t file;
  int line;
};

void check_lock_order(const Corpus& corpus, const Options& options,
                      Report& report) {
  std::set<std::string> declared_nodes;
  std::set<std::pair<std::string, std::string>> declared_edges;
  for (const auto& [outer, inner] : options.lock_order) {
    declared_nodes.insert(outer);
    declared_nodes.insert(inner);
    declared_edges.emplace(outer, inner);
  }

  const auto& functions = corpus.seg.functions;

  // REQUIRES on header declarations transfers to the out-of-line definition.
  std::map<std::pair<std::string, std::string>, std::vector<std::string>>
      decl_req;
  for (const DeclRequires& d : corpus.seg.decl_requires) {
    decl_req[{d.qualifier, d.name}] = d.args;
  }

  // Pass 1: nodes each function acquires directly (for one-level inlining).
  std::vector<std::set<std::string>> acquired(functions.size());
  for (std::size_t fi = 0; fi < functions.size(); ++fi) {
    const Function& fn = functions[fi];
    const auto& t = corpus.files[fn.file].lx.tokens;
    for (std::size_t i = fn.body_begin; i < fn.body_end; ++i) {
      if (is_ident(t, i) && t[i].text == "MutexLock" && is_ident(t, i + 1) &&
          is(t, i + 2, "(")) {
        const std::size_t expr_end = skip_group(t, i + 2, "(", ")");
        acquired[fi].insert(
            lock_node(fn, t, i + 3, expr_end - 1, declared_nodes));
        i = expr_end - 1;
      }
    }
  }

  // Pass 2: walk each body tracking the held set (RAII scope = brace depth)
  // and record held -> acquired edges, inlining one level of direct calls.
  std::map<std::pair<std::string, std::string>, EdgeSite> edges;
  auto add_edge = [&edges](const std::string& from, const std::string& to,
                           std::size_t file, int line) {
    edges.emplace(std::make_pair(from, to), EdgeSite{file, line});
  };
  for (std::size_t fi = 0; fi < functions.size(); ++fi) {
    const Function& fn = functions[fi];
    const auto& t = corpus.files[fn.file].lx.tokens;
    std::vector<std::string> req = fn.requires_args;
    if (req.empty()) {
      const auto it = decl_req.find({fn.qualifier, fn.name});
      if (it != decl_req.end()) req = it->second;
    }
    std::vector<std::pair<std::string, int>> held;  // node, depth acquired
    for (const std::string& arg : req) {
      // A REQUIRES precondition is held for the whole body (depth 0).
      std::vector<Token> one{{TokKind::kIdent, arg, 0}};
      held.emplace_back(lock_node(fn, one, 0, 1, declared_nodes), 0);
    }
    int depth = 0;
    for (std::size_t i = fn.body_begin; i < fn.body_end; ++i) {
      if (is(t, i, "{")) {
        ++depth;
        continue;
      }
      if (is(t, i, "}")) {
        --depth;
        while (!held.empty() && held.back().second > depth) held.pop_back();
        continue;
      }
      if (is_ident(t, i) && t[i].text == "MutexLock" && is_ident(t, i + 1) &&
          is(t, i + 2, "(")) {
        const std::size_t expr_end = skip_group(t, i + 2, "(", ")");
        const std::string node =
            lock_node(fn, t, i + 3, expr_end - 1, declared_nodes);
        for (const auto& [held_node, held_depth] : held) {
          add_edge(held_node, node, fn.file, t[i].line);
        }
        held.emplace_back(node, depth);
        i = expr_end - 1;
        continue;
      }
      // One-level inlining of direct (unqualified, non-member) calls.
      if (!held.empty() && is_ident(t, i) && is(t, i + 1, "(") &&
          !is_keyword(t[i].text) && t[i].text != "MutexLock" &&
          !prev_is_member(t, i) && !prev_is_scope(t, i)) {
        const auto callees = corpus.by_name.find(t[i].text);
        if (callees != corpus.by_name.end()) {
          for (const std::size_t ci : callees->second) {
            for (const std::string& node : acquired[ci]) {
              for (const auto& [held_node, held_depth] : held) {
                add_edge(held_node, node, fn.file, t[i].line);
              }
            }
          }
        }
      }
    }
  }

  // Declared-order inversions and recursive self-acquisition.
  std::set<std::pair<std::string, std::string>> flagged;
  for (const auto& [edge, site] : edges) {
    const auto& [from, to] = edge;
    const Lexed& lx = corpus.files[site.file].lx;
    const std::string& path = corpus.files[site.file].path;
    if (from == to) {
      flagged.insert(edge);
      lintcore::emit(path, lx, site.line, "svclint-lock-order",
                     "recursive acquisition of '" + from +
                         "' (lock already held on this path)",
                     options.allow, report);
      continue;
    }
    if (declared_edges.count({to, from}) != 0) {
      flagged.insert(edge);
      lintcore::emit(path, lx, site.line, "svclint-lock-order",
                     "'" + to + "' acquired while '" + from +
                         "' is held; the declared order is '" + to + " -> " +
                         from + "' (outer first)",
                     options.allow, report);
    }
  }

  // Cycles among the remaining observed edges (classic inversion deadlock).
  std::map<std::string, std::vector<std::string>> adjacency;
  for (const auto& [edge, site] : edges) {
    if (flagged.count(edge) == 0 && edge.first != edge.second) {
      adjacency[edge.first].push_back(edge.second);
    }
  }
  std::map<std::string, int> color;  // 0 unvisited, 1 on stack, 2 done
  std::vector<std::string> stack;
  auto report_cycle = [&](const std::string& back_to) {
    std::string cycle = back_to;
    for (std::size_t j = stack.size(); j-- > 0;) {
      cycle = stack[j] + " -> " + cycle;
      if (stack[j] == back_to) break;
    }
    const std::string& from = stack.back();
    const EdgeSite site = edges.at({from, back_to});
    lintcore::emit(corpus.files[site.file].path, corpus.files[site.file].lx,
                   site.line, "svclint-lock-order",
                   "lock-order cycle: " + cycle, options.allow, report);
  };
  std::function<void(const std::string&)> dfs = [&](const std::string& node) {
    color[node] = 1;
    stack.push_back(node);
    for (const std::string& next : adjacency[node]) {
      if (color[next] == 1) {
        report_cycle(next);
      } else if (color[next] == 0) {
        dfs(next);
      }
    }
    stack.pop_back();
    color[node] = 2;
  };
  for (const auto& [node, targets] : adjacency) {
    if (color[node] == 0) dfs(node);
  }
}

// ---------------------------------------------------------------------------
// svclint-durability
// ---------------------------------------------------------------------------

const std::set<std::string>& durability_files() {
  static const std::set<std::string> files = {
      "session_wal.cpp", "results_store.cpp", "server.cpp", "wal_ship.cpp",
      "session_manager.cpp", "frame_server.cpp"};
  return files;
}

/// Member-call names that collide with standard container/string methods.
/// Calls through `.`/`->` with these names are never resolved to corpus
/// functions — `buffer_.append(...)` must not inherit ResultsStore::append's
/// durability effects.
const std::set<std::string>& stl_member_names() {
  static const std::set<std::string> names = {
      "append",  "insert", "erase",   "find",    "count",   "push_back",
      "pop_back", "emplace", "emplace_back", "resize", "reserve", "clear",
      "assign",  "compare", "substr", "c_str",   "data",    "begin",
      "end",     "size",   "empty",   "str",     "reset",   "release",
      "swap",    "front",  "back",    "at",      "get",     "set",
      "load",    "store",  "push",    "pop",     "top",     "value",
      "contains", "merge", "extract"};
  return names;
}

struct Event {
  enum Kind { kSend, kSync, kCall } kind;
  std::string name;
  int line;
};

void check_durability(const Corpus& corpus, const Options& options,
                      Report& report) {
  const auto& functions = corpus.seg.functions;

  // Collect the ordered send / sync / call events of every function.
  std::vector<std::vector<Event>> events(functions.size());
  for (std::size_t fi = 0; fi < functions.size(); ++fi) {
    const Function& fn = functions[fi];
    const auto& t = corpus.files[fn.file].lx.tokens;
    for (std::size_t i = fn.body_begin; i < fn.body_end; ++i) {
      if (!is_ident(t, i) || !is(t, i + 1, "(")) continue;
      const std::string& id = t[i].text;
      if (id == "write_frame" || id == "send_frame") {
        events[fi].push_back({Event::kSend, id, t[i].line});
      } else if (id == "fsync" || id == "fdatasync") {
        events[fi].push_back({Event::kSync, id, t[i].line});
      } else if (!is_keyword(id) && corpus.by_name.count(id) != 0) {
        if (prev_is_member(t, i) && stl_member_names().count(id) != 0) {
          continue;
        }
        events[fi].push_back({Event::kCall, id, t[i].line});
      }
    }
  }

  // Fixpoint: a function reaches a barrier (or a send) if it performs one
  // directly or calls — by name, one or more candidates — a function that
  // does. Names are matched corpus-wide, so server.cpp's dispatch() inherits
  // the barrier from SessionManager::tell -> SessionWal::append_tell ->
  // fsync.
  std::vector<char> eff_sync(functions.size(), 0);
  for (std::size_t fi = 0; fi < functions.size(); ++fi) {
    for (const Event& e : events[fi]) {
      if (e.kind == Event::kSync) eff_sync[fi] = 1;
    }
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t fi = 0; fi < functions.size(); ++fi) {
      if (eff_sync[fi]) continue;
      for (const Event& e : events[fi]) {
        if (e.kind != Event::kCall) continue;
        for (const std::size_t ci : corpus.by_name.at(e.name)) {
          if (eff_sync[ci]) {
            eff_sync[fi] = 1;
            changed = true;
            break;
          }
        }
        if (eff_sync[fi]) break;
      }
    }
  }

  // Flag frame writes that precede the first barrier of their function in
  // the durability-scoped files. Functions with no barrier anywhere are
  // pure network plumbing (wal_ship's link RPCs) and are exempt: they ack
  // nothing durable themselves.
  for (std::size_t fi = 0; fi < functions.size(); ++fi) {
    const Function& fn = functions[fi];
    const File& file = corpus.files[fn.file];
    if (durability_files().count(file.basename) == 0) continue;
    auto is_barrier = [&](const Event& e) {
      if (e.kind == Event::kSync) return true;
      if (e.kind != Event::kCall) return false;
      for (const std::size_t ci : corpus.by_name.at(e.name)) {
        if (eff_sync[ci]) return true;
      }
      return false;
    };
    int first_barrier_line = -1;
    for (const Event& e : events[fi]) {
      if (is_barrier(e)) {
        first_barrier_line = e.line;
        break;
      }
    }
    if (first_barrier_line < 0) continue;
    for (const Event& e : events[fi]) {
      if (is_barrier(e)) break;
      if (e.kind != Event::kSend) continue;
      lintcore::emit(
          file.path, file.lx, e.line, "svclint-durability",
          e.name + " reaches the socket before the durability barrier at " +
              "line " + std::to_string(first_barrier_line) +
              " (fsync/durable append); nothing may be acknowledged before "
              "it is fsync'd",
          options.allow, report);
    }
  }
}

// ---------------------------------------------------------------------------
// svclint-wire-drift
// ---------------------------------------------------------------------------

struct DocFile {
  std::string path;
  Lexed pseudo;                     ///< lines + NOLINT, no tokens
  std::map<std::string, int> fields;  ///< documented JSON key -> first line
  std::map<std::string, int> ops;     ///< documented "op" value -> first line
};

/// Extract documented JSON keys and "op" values from the fenced code blocks
/// of a markdown file. A quoted name is a key when followed by `:` or by the
/// optional-field marker `?`; the quoted *value* after `"op":` is an op.
DocFile scan_doc(const SourceFile& doc, const std::string& tool) {
  DocFile out;
  out.path = doc.path;
  std::stringstream ss(doc.content);
  std::string line;
  int lineno = 0;
  bool in_fence = false;
  while (std::getline(ss, line)) {
    ++lineno;
    lintcore::parse_nolint(line, lineno, tool, out.pseudo.nolint);
    out.pseudo.lines.push_back(line);
    std::string trimmed = line;
    trimmed.erase(0, trimmed.find_first_not_of(" \t"));
    if (trimmed.compare(0, 3, "```") == 0) {
      in_fence = !in_fence;
      continue;
    }
    if (!in_fence) continue;
    std::size_t i = 0;
    while ((i = line.find('"', i)) != std::string::npos) {
      const std::size_t close = line.find('"', i + 1);
      if (close == std::string::npos) break;
      const std::string name = line.substr(i + 1, close - i - 1);
      std::size_t after = close + 1;
      while (after < line.size() && (line[after] == ' ' || line[after] == '\t')) {
        ++after;
      }
      const bool optional_key = after < line.size() && line[after] == '?';
      const bool key = after < line.size() && line[after] == ':';
      i = after;
      if (name.empty() ||
          name.find_first_not_of("abcdefghijklmnopqrstuvwxyz"
                                 "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_") !=
              std::string::npos) {
        continue;
      }
      if (optional_key) {
        out.fields.emplace(name, lineno);
        continue;
      }
      if (!key) continue;
      if (name == "op") {
        const std::size_t vopen = line.find('"', after + 1);
        const std::size_t vclose =
            vopen == std::string::npos ? std::string::npos
                                       : line.find('"', vopen + 1);
        if (vclose != std::string::npos) {
          out.ops.emplace(line.substr(vopen + 1, vclose - vopen - 1), lineno);
          i = vclose + 1;
        }
      } else {
        out.fields.emplace(name, lineno);
        // Skip a quoted value so it is not misread as the next key.
        const std::size_t vopen = line.find('"', after + 1);
        if (vopen != std::string::npos && vopen == line.find_first_not_of(" \t", after + 1)) {
          const std::size_t vclose = line.find('"', vopen + 1);
          if (vclose != std::string::npos) i = vclose + 1;
        }
      }
    }
  }
  return out;
}

void check_wire_drift(const Corpus& corpus,
                      const std::vector<SourceFile>& docs,
                      const Options& options, Report& report) {
  // Wire names of the op table (protocol.cpp): every row opens with
  // `{Op::kName, "wire_name", ...`. tuned and tunelb both dispatch on it.
  std::set<std::string> table_ops;
  for (const File& f : corpus.files) {
    if (f.basename != "protocol.cpp") continue;
    const auto& t = f.lx.tokens;
    for (std::size_t i = 0; i + 6 < t.size(); ++i) {
      if (is(t, i, "{") && is_ident(t, i + 1) && t[i + 1].text == "Op" &&
          is(t, i + 2, ":") && is(t, i + 3, ":") && is_ident(t, i + 4) &&
          is(t, i + 5, ",") && t[i + 6].kind == TokKind::kString) {
        table_ops.insert(t[i + 6].text);
      }
    }
  }

  // Wire names of the status and store_stats field tables
  // (status_codec.cpp): every row opens with `Field{"wire_name", ...` or, for
  // a nested object, `Block{"wire_name", ...`.
  std::vector<std::pair<std::string, EdgeSite>> table_fields;
  for (std::size_t fi = 0; fi < corpus.files.size(); ++fi) {
    const File& f = corpus.files[fi];
    if (f.basename != "status_codec.cpp") continue;
    const auto& t = f.lx.tokens;
    for (std::size_t i = 0; i + 3 < t.size(); ++i) {
      if (is_ident(t, i) && (t[i].text == "Field" || t[i].text == "Block") &&
          is(t, i + 1, "{") && t[i + 2].kind == TokKind::kString && is(t, i + 3, ",")) {
        table_fields.emplace_back(t[i + 2].text, EdgeSite{fi, t[i + 2].line});
      }
    }
  }

  // ErrorCode enum members (protocol.hpp) with their declaration lines.
  std::map<std::string, EdgeSite> codes;
  for (std::size_t fi = 0; fi < corpus.files.size(); ++fi) {
    const File& f = corpus.files[fi];
    if (f.basename != "protocol.hpp") continue;
    const auto& t = f.lx.tokens;
    for (std::size_t i = 0; i + 3 < t.size(); ++i) {
      if (!(is_ident(t, i) && t[i].text == "enum" && is(t, i + 1, "class") &&
            is(t, i + 2, "ErrorCode"))) {
        continue;
      }
      std::size_t j = i + 3;
      while (j < t.size() && !is(t, j, "{")) ++j;
      const std::size_t end = skip_group(t, j, "{", "}");
      bool expecting = true;
      for (std::size_t k = j + 1; k + 1 < end; ++k) {
        if (is(t, k, ",")) {
          expecting = true;
        } else if (expecting && is_ident(t, k)) {
          codes.emplace(t[k].text, EdgeSite{fi, t[k].line});
          expecting = false;
        }
      }
    }
  }

  // to_string cases and error_code_from's parse list (protocol.cpp), plus
  // every ErrorCode::k... reference outside protocol.* ("emitted or
  // handled" — thrown by a handler, matched by a client).
  std::map<std::string, std::string> wire_string;  // kCode -> "string"
  std::set<std::string> parsed_back;
  std::set<std::string> used_outside;
  bool have_protocol_cpp = false;
  for (std::size_t fi = 0; fi < corpus.files.size(); ++fi) {
    const File& f = corpus.files[fi];
    const bool is_protocol =
        f.basename == "protocol.cpp" || f.basename == "protocol.hpp";
    if (f.basename == "protocol.cpp") have_protocol_cpp = true;
    const auto& t = f.lx.tokens;
    for (std::size_t i = 0; i + 3 < t.size(); ++i) {
      if (!(is_ident(t, i) && t[i].text == "ErrorCode" && is(t, i + 1, ":") &&
            is(t, i + 2, ":") && is_ident(t, i + 3))) {
        continue;
      }
      const std::string& code = t[i + 3].text;
      if (!is_protocol) {
        used_outside.insert(code);
        continue;
      }
      if (f.basename != "protocol.cpp") continue;
      // `case ErrorCode::kX: return "x";` inside to_string.
      if (is(t, i + 4, ":") && !is(t, i + 5, ":") && is(t, i + 5, "return") &&
          i + 6 < t.size() && t[i + 6].kind == TokKind::kString) {
        wire_string[code] = t[i + 6].text;
      }
    }
  }
  for (const Function& fn : corpus.seg.functions) {
    if (fn.name != "error_code_from") continue;
    const auto& t = corpus.files[fn.file].lx.tokens;
    for (std::size_t i = fn.body_begin;
         i + 3 < fn.body_end && i + 3 < t.size(); ++i) {
      if (is_ident(t, i) && t[i].text == "ErrorCode" && is(t, i + 1, ":") &&
          is(t, i + 2, ":") && is_ident(t, i + 3)) {
        parsed_back.insert(t[i + 3].text);
      }
    }
  }

  // Every string literal anywhere in the sources (field-presence oracle).
  std::set<std::string> source_strings;
  for (const File& f : corpus.files) {
    for (const Token& tok : f.lx.tokens) {
      if (tok.kind == TokKind::kString) source_strings.insert(tok.text);
    }
  }

  // Check 1: every ErrorCode must round-trip (to_string + error_code_from)
  // and be referenced outside protocol.* — a code nobody emits or matches
  // is drift waiting to disagree with the docs.
  if (have_protocol_cpp) {
    for (const auto& [code, site] : codes) {
      const File& f = corpus.files[site.file];
      if (wire_string.count(code) == 0 || parsed_back.count(code) == 0) {
        lintcore::emit(f.path, f.lx, site.line, "svclint-wire-drift",
                       "error code " + code +
                           " does not round-trip: it needs both a to_string "
                           "case and an error_code_from entry (the client's "
                           "parse path)",
                       options.allow, report);
        continue;
      }
      if (used_outside.count(code) == 0) {
        lintcore::emit(f.path, f.lx, site.line, "svclint-wire-drift",
                       "error code " + code +
                           " is defined but never emitted or handled outside "
                           "protocol.*",
                       options.allow, report);
      }
    }
  }

  // Check 2: documented schema must exist in the sources — every fenced
  // "field": / "field"? key somewhere as a string literal, every documented
  // op a row of the op table (checked whenever protocol.cpp is scanned).
  std::set<std::string> documented;
  for (const SourceFile& doc : docs) {
    ++report.files_scanned;
    const DocFile scanned = scan_doc(doc, "svclint");
    for (const auto& [field, line] : scanned.fields) documented.insert(field);
    for (const auto& [field, line] : scanned.fields) {
      if (source_strings.count(field) != 0) continue;
      lintcore::emit(scanned.path, scanned.pseudo, line, "svclint-wire-drift",
                     "documented field \"" + field +
                         "\" never appears in the scanned sources (drifted "
                         "or renamed?)",
                     options.allow, report);
    }
    if (!have_protocol_cpp) continue;
    for (const auto& [op, line] : scanned.ops) {
      if (table_ops.count(op) != 0) continue;
      lintcore::emit(scanned.path, scanned.pseudo, line, "svclint-wire-drift",
                     "documented op \"" + op + "\" is not a row of the op table",
                     options.allow, report);
    }
  }

  // Check 3, the reverse of check 2: every wire name a field table declares
  // must appear in a fenced schema block of the docs (checked whenever docs
  // are scanned).
  if (docs.empty()) return;
  for (const auto& [field, site] : table_fields) {
    if (documented.count(field) != 0) continue;
    const File& f = corpus.files[site.file];
    lintcore::emit(f.path, f.lx, site.line, "svclint-wire-drift",
                   "field-table row \"" + field +
                       "\" is missing from the documented schema blocks",
                   options.allow, report);
  }
}

}  // namespace

const std::vector<std::string>& rule_names() {
  static const std::vector<std::string> names = {
      "svclint-lock-order", "svclint-durability", "svclint-wire-drift"};
  return names;
}

Options default_options() { return Options{}; }

bool parse_lock_order(const std::string& text,
                      std::vector<std::pair<std::string, std::string>>& out,
                      std::string& error) {
  std::stringstream ss(text);
  std::string line;
  int lineno = 0;
  while (std::getline(ss, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    line.erase(0, line.find_first_not_of(" \t"));
    line.erase(line.find_last_not_of(" \t\r") + 1);
    if (line.empty()) continue;
    const std::size_t arrow = line.find("->");
    if (arrow == std::string::npos) {
      error = "line " + std::to_string(lineno) +
              ": expected 'outer -> inner', got '" + line + "'";
      return false;
    }
    std::string outer = line.substr(0, arrow);
    std::string inner = line.substr(arrow + 2);
    outer.erase(outer.find_last_not_of(" \t") + 1);
    inner.erase(0, inner.find_first_not_of(" \t"));
    if (outer.empty() || inner.empty()) {
      error = "line " + std::to_string(lineno) + ": empty lock name";
      return false;
    }
    out.emplace_back(outer, inner);
  }
  return true;
}

Report lint_corpus(const std::vector<SourceFile>& sources,
                   const std::vector<SourceFile>& docs,
                   const Options& options) {
  Report report;
  Corpus corpus;
  for (const SourceFile& src : sources) {
    ++report.files_scanned;
    corpus.files.push_back(
        {src.path, basename_of(src.path), lintcore::lex(src.content,
                                                        "svclint")});
  }
  for (std::size_t fi = 0; fi < corpus.files.size(); ++fi) {
    segment_file(corpus.files[fi], fi, corpus.seg);
  }
  for (std::size_t i = 0; i < corpus.seg.functions.size(); ++i) {
    corpus.by_name[corpus.seg.functions[i].name].push_back(i);
  }
  check_lock_order(corpus, options, report);
  check_durability(corpus, options, report);
  check_wire_drift(corpus, docs, options, report);
  return report;
}

std::string to_json(const Report& report) {
  return lintcore::to_json(report, "svclint");
}

}  // namespace svclint
