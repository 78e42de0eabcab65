// Unit tests for the svclint library: every rule family fires on the bad
// fixture corpus, every suppression is silenced and counted, the clean
// corpus produces nothing, lock-order files parse (and reject garbage),
// and the JSON report schema stays parseable and versioned.
//
// Fixture corpora live under fixtures/{bad,suppressed,clean}; each holds
// the same file roster (store/server/session_manager/protocol.* plus api.md
// and a lock_order.txt) so the three runs differ only in hazards and NOLINTs.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "lintcore/lintcore.hpp"
#include "svclint.hpp"

namespace {

using lintcore::Finding;
using lintcore::Report;
using svclint::Options;
using svclint::SourceFile;

std::map<std::string, int> count_by_rule(const Report& report) {
  std::map<std::string, int> counts;
  for (const Finding& finding : report.findings) ++counts[finding.rule];
  return counts;
}

std::string fixture_path(const char* corpus, const char* name) {
  return std::string(SVCLINT_FIXTURE_DIR) + "/" + corpus + "/" + name;
}

SourceFile load(const char* corpus, const char* name) {
  SourceFile out;
  out.path = fixture_path(corpus, name);
  EXPECT_TRUE(lintcore::read_file(out.path, out.content)) << out.path;
  return out;
}

/// Load one fixture corpus (sources + docs + its lock-order file) and run
/// the full linter over it.
Report lint_corpus_dir(const char* corpus) {
  std::vector<SourceFile> sources;
  for (const char* name : {"store.cpp", "server.cpp", "session_manager.cpp",
                           "protocol.hpp", "protocol.cpp"}) {
    sources.push_back(load(corpus, name));
  }
  const std::vector<SourceFile> docs = {load(corpus, "api.md")};

  Options options;
  std::string order_text;
  std::string error;
  EXPECT_TRUE(lintcore::read_file(fixture_path(corpus, "lock_order.txt"),
                                  order_text));
  EXPECT_TRUE(svclint::parse_lock_order(order_text, options.lock_order, error))
      << error;
  return svclint::lint_corpus(sources, docs, options);
}

TEST(Svclint, RuleSetIsStable) {
  const std::vector<std::string> expected = {
      "svclint-lock-order", "svclint-durability", "svclint-wire-drift"};
  EXPECT_EQ(svclint::rule_names(), expected);
}

TEST(Svclint, BadCorpusTripsEveryRuleFamily) {
  const Report report = lint_corpus_dir("bad");
  const auto counts = count_by_rule(report);
  for (const std::string& rule : svclint::rule_names()) {
    EXPECT_TRUE(counts.count(rule) != 0 && counts.at(rule) >= 1)
        << "rule never fired: " << rule;
  }
  EXPECT_EQ(report.suppressed, 0u);
  // 5 sources + 1 doc.
  EXPECT_EQ(report.files_scanned, 6u);
  for (const Finding& finding : report.findings) {
    EXPECT_GT(finding.line, 0) << finding.rule;
    EXPECT_FALSE(finding.snippet.empty()) << finding.rule;
    EXPECT_FALSE(finding.message.empty()) << finding.rule;
  }
}

TEST(Svclint, BadCorpusFindsTheSeededHazards) {
  const Report report = lint_corpus_dir("bad");
  const auto counts = count_by_rule(report);
  // Lock order: the declared-order inversion plus the inlined-call cycle.
  EXPECT_EQ(counts.at("svclint-lock-order"), 2);
  // Durability: the pre-barrier ack in server.cpp and the pre-journal
  // resync ack in session_manager.cpp, never the post-barrier ones.
  EXPECT_EQ(counts.at("svclint-durability"), 2);
  // Wire drift: ghost error code, undocumented-field and off-table-op doc
  // entries.
  EXPECT_EQ(counts.at("svclint-wire-drift"), 3);

  bool cycle = false;
  bool inversion = false;
  bool ghost_code = false;
  bool off_table_op = false;
  for (const Finding& finding : report.findings) {
    if (finding.message.find("lock-order cycle") != std::string::npos) {
      cycle = true;
    }
    if (finding.message.find("declared order") != std::string::npos) {
      inversion = true;
    }
    if (finding.message.find("kGhost") != std::string::npos) {
      ghost_code = true;
    }
    if (finding.message.find("\"vanish\" is not a row of the op table") !=
        std::string::npos) {
      off_table_op = true;
    }
  }
  EXPECT_TRUE(cycle);
  EXPECT_TRUE(inversion);
  EXPECT_TRUE(ghost_code);
  EXPECT_TRUE(off_table_op);
}

TEST(Svclint, SuppressedCorpusIsCleanAndCounted) {
  const Report report = lint_corpus_dir("suppressed");
  EXPECT_TRUE(report.findings.empty())
      << report.findings.front().rule << " leaked at "
      << report.findings.front().file << ":" << report.findings.front().line;
  // One suppression per family hazard: lock inversion, early ack, quota
  // pushback reply, reserved error code, reserved doc field.
  EXPECT_EQ(report.suppressed, 5u);
}

TEST(Svclint, CleanCorpusHasNothingToSay) {
  const Report report = lint_corpus_dir("clean");
  EXPECT_TRUE(report.findings.empty())
      << report.findings.front().rule << " fired at "
      << report.findings.front().file << ":" << report.findings.front().line;
  EXPECT_EQ(report.suppressed, 0u);
}

TEST(Svclint, LockOrderFileParses) {
  std::vector<std::pair<std::string, std::string>> order;
  std::string error;
  const std::string text =
      "# comment\n"
      "a -> b\n"
      "  outer_mu  ->  inner_mu  # trailing comment\n"
      "\n";
  ASSERT_TRUE(svclint::parse_lock_order(text, order, error)) << error;
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], (std::pair<std::string, std::string>{"a", "b"}));
  EXPECT_EQ(order[1],
            (std::pair<std::string, std::string>{"outer_mu", "inner_mu"}));
}

TEST(Svclint, LockOrderFileRejectsGarbage) {
  std::vector<std::pair<std::string, std::string>> order;
  std::string error;
  EXPECT_FALSE(svclint::parse_lock_order("no arrow here\n", order, error));
  EXPECT_NE(error.find("line 1"), std::string::npos);
  error.clear();
  EXPECT_FALSE(svclint::parse_lock_order("-> inner\n", order, error));
  EXPECT_NE(error.find("empty lock name"), std::string::npos);
}

TEST(Svclint, JsonReportSchemaIsStable) {
  Report report;
  report.files_scanned = 4;
  report.suppressed = 1;
  report.findings.push_back({"src/service/server.cpp", 12,
                             "svclint-durability", "message with \"quotes\"",
                             "write_frame(io, reply);"});

  const repro::Json parsed = repro::Json::parse(svclint::to_json(report));
  ASSERT_TRUE(parsed.is_object());
  EXPECT_EQ(parsed.find("tool")->as_string(), "svclint");
  EXPECT_EQ(parsed.find("schema_version")->as_int64(), 1);
  EXPECT_EQ(parsed.find("files_scanned")->as_int64(), 4);
  EXPECT_EQ(parsed.find("suppressed")->as_int64(), 1);
  const auto& findings = parsed.find("findings")->as_array();
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].find("file")->as_string(), "src/service/server.cpp");
  EXPECT_EQ(findings[0].find("line")->as_int64(), 12);
  EXPECT_EQ(findings[0].find("rule")->as_string(), "svclint-durability");
  EXPECT_EQ(findings[0].find("message")->as_string(),
            "message with \"quotes\"");
  EXPECT_EQ(findings[0].find("snippet")->as_string(),
            "write_frame(io, reply);");
}

TEST(Svclint, JsonEmptyReportParses) {
  const repro::Json parsed = repro::Json::parse(svclint::to_json(Report{}));
  EXPECT_TRUE(parsed.find("findings")->as_array().empty());
  EXPECT_EQ(parsed.find("files_scanned")->as_int64(), 0);
  EXPECT_EQ(parsed.find("tool")->as_string(), "svclint");
}

}  // namespace
