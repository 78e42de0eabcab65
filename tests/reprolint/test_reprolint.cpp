// Unit tests for the reprolint library: every rule fires on the bad
// fixture, every suppression spelling silences (and is counted), the
// allowlist is path-scoped, unordered-container names propagate across
// files, and the JSON report schema stays parseable and versioned.
//
// Hazard patterns appear below only inside string literals — the
// tokenizer never lints string contents, so this file stays clean under
// the tree gate.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "common/json.hpp"
#include "reprolint.hpp"

namespace {

using reprolint::Finding;
using reprolint::Options;
using reprolint::Report;

std::map<std::string, int> count_by_rule(const Report& report) {
  std::map<std::string, int> counts;
  for (const Finding& finding : report.findings) ++counts[finding.rule];
  return counts;
}

Report lint_fixture(const char* name, const Options& options) {
  Report report;
  const std::string path = std::string(REPROLINT_FIXTURE_DIR) + "/" + name;
  EXPECT_TRUE(reprolint::lint_file(path, options, report)) << path;
  return report;
}

TEST(Reprolint, RuleSetIsStable) {
  const std::vector<std::string> expected = {
      "reprolint-rand",
      "reprolint-random-device",
      "reprolint-wall-clock",
      "reprolint-unseeded-rng",
      "reprolint-nonportable-random",
      "reprolint-unordered-iteration",
      "reprolint-nondet-reduction",
      "reprolint-raw-thread",
      "reprolint-fused-multiply-add"};
  EXPECT_EQ(reprolint::rule_names(), expected);
}

TEST(Reprolint, BadFixtureTripsEveryRule) {
  const Report report = lint_fixture("bad_patterns.cpp", Options{});
  const auto counts = count_by_rule(report);
  for (const std::string& rule : reprolint::rule_names()) {
    EXPECT_TRUE(counts.count(rule) != 0 && counts.at(rule) >= 1)
        << "rule never fired: " << rule;
  }
  EXPECT_EQ(report.suppressed, 0u);
  EXPECT_EQ(report.files_scanned, 1u);
  for (const Finding& finding : report.findings) {
    EXPECT_GT(finding.line, 0) << finding.rule;
    EXPECT_FALSE(finding.snippet.empty()) << finding.rule;
    EXPECT_FALSE(finding.message.empty()) << finding.rule;
  }
}

TEST(Reprolint, SuppressedFixtureIsCleanAndCounted) {
  const Report report = lint_fixture("suppressed.cpp", Options{});
  EXPECT_TRUE(report.findings.empty())
      << report.findings.front().rule << " leaked at line "
      << report.findings.front().line;
  // One per suppression spelling: rule list, NOLINTNEXTLINE, bare NOLINT,
  // and the `reprolint` wildcard list entry.
  EXPECT_EQ(report.suppressed, 4u);
}

TEST(Reprolint, NolintOnlyCoversItsOwnLineAndRule) {
  const std::string src =
      "int a() { return rand(); }  // NOLINT(reprolint-rand) ok\n"
      "int b() { return rand(); }\n"
      "// NOLINTNEXTLINE(reprolint-rand)\n"
      "int c() { return rand(); }\n"
      "int d() { return rand(); }  // NOLINT(reprolint-wall-clock) wrong rule\n";
  Report report;
  reprolint::lint_content("src/x.cpp", src, Options{}, report);
  ASSERT_EQ(report.findings.size(), 2u);
  EXPECT_EQ(report.findings[0].line, 2);
  EXPECT_EQ(report.findings[1].line, 5);
  EXPECT_EQ(report.suppressed, 2u);
}

TEST(Reprolint, DefaultAllowlistIsPathScoped) {
  const std::string clock_src =
      "long stamp() {\n"
      "  return std::chrono::system_clock::now().time_since_epoch().count();\n"
      "}\n";
  const Options options = reprolint::default_options();

  Report allowed;
  reprolint::lint_content("src/common/log.cpp", clock_src, options, allowed);
  EXPECT_TRUE(allowed.findings.empty());
  EXPECT_EQ(allowed.suppressed, 0u);  // allowlisted, not NOLINT-suppressed

  Report flagged;
  reprolint::lint_content("src/harness/study.cpp", clock_src, options, flagged);
  ASSERT_EQ(flagged.findings.size(), 1u);
  EXPECT_EQ(flagged.findings[0].rule, "reprolint-wall-clock");
}

TEST(Reprolint, AllowlistedFixtureUnderVirtualPaths) {
  // The same fixture content is clean under allowlisted paths and dirty
  // under an ordinary source path.
  const std::string path = std::string(REPROLINT_FIXTURE_DIR) + "/allowlisted.cpp";
  Report bare;
  ASSERT_TRUE(reprolint::lint_file(path, Options{}, bare));
  ASSERT_EQ(bare.findings.size(), 2u);

  const Options options = reprolint::default_options();
  for (const Finding& finding : bare.findings) {
    Report report;
    const char* virtual_path = finding.rule == "reprolint-wall-clock"
                                   ? "bench/micro/bench_micro.cpp"
                                   : "tests/race/test_race_thread_pool.cpp";
    reprolint::lint_content(virtual_path, finding.snippet, options, report);
    EXPECT_TRUE(report.findings.empty()) << finding.rule;
  }
}

TEST(Reprolint, SimdHorizontalReduceFiresAndJustifiedNolintSilences) {
  // An unordered SIMD lane reduction is a nondet-reduction hazard; a use
  // that pins its combination order carries a justified NOLINT, which must
  // count as suppressed rather than leak a finding.
  const std::string bare =
      "double total(__m256d acc) { return _mm256_hadd_pd(acc, acc)[0]; }\n";
  Report flagged;
  reprolint::lint_content("src/x.cpp", bare, Options{}, flagged);
  ASSERT_EQ(flagged.findings.size(), 1u);
  EXPECT_EQ(flagged.findings[0].rule, "reprolint-nondet-reduction");
  EXPECT_EQ(flagged.findings[0].line, 1);

  const std::string justified =
      "const __m128d pair = _mm_hadd_pd(a, b);  "
      "// NOLINT(reprolint-nondet-reduction) fixed pairwise combine\n";
  Report suppressed;
  reprolint::lint_content("src/x.cpp", justified, Options{}, suppressed);
  EXPECT_TRUE(suppressed.findings.empty());
  EXPECT_EQ(suppressed.suppressed, 1u);
}

TEST(Reprolint, FusedMultiplyAddFiresOnIntrinsicsAndLibmCalls) {
  // Every explicit FMA spelling fires once on its own line; member calls
  // and names that merely contain "fma" do not.
  const std::string src =
      "a = _mm256_fmadd_pd(x, y, z);\n"
      "a = _mm_fmsub_sd(x, y, z);\n"
      "a = _mm512_fnmadd_pd(x, y, z);\n"
      "a = _mm256_fnmsub_ps(x, y, z);\n"
      "a = _mm_fmaddsub_pd(x, y, z);\n"
      "a = _mm256_fmsubadd_pd(x, y, z);\n"
      "a = _mm512_mask_fmadd_pd(x, m, y, z);\n"
      "r = std::fma(x, y, z);\n"
      "r = fma(x, y, z);\n"
      "r = fmaf(x, y, z);\n"
      "r = fmal(x, y, z);\n"
      "r = __builtin_fma(x, y, z);\n"
      "r = __builtin_fmaf(x, y, z);\n"
      "r = unit.fma(x, y, z);\n"
      "r = fma_budget(x) + _mm256_mul_pd(x, y)[0];\n"
      "const char* s = \"fma(x, y, z)\";\n";
  Report report;
  reprolint::lint_content("src/x.cpp", src, Options{}, report);
  ASSERT_EQ(report.findings.size(), 13u);
  for (std::size_t i = 0; i < report.findings.size(); ++i) {
    EXPECT_EQ(report.findings[i].rule, "reprolint-fused-multiply-add");
    EXPECT_EQ(report.findings[i].line, static_cast<int>(i + 1));
  }
}

TEST(Reprolint, UnorderedNamesPropagateAcrossFiles) {
  // Declaration in one file, iteration in another: only the cross-file
  // name set makes the second file's range-for detectable.
  const std::string header = "std::unordered_map<int, long> totals_;\n";
  const std::string source =
      "long sum() {\n"
      "  long s = 0;\n"
      "  for (const auto& [k, v] : totals_) s += v;\n"
      "  return s;\n"
      "}\n";

  Report without;
  reprolint::lint_content("src/a.cpp", source, Options{}, without);
  EXPECT_TRUE(without.findings.empty());

  Options options;
  reprolint::collect_unordered_names(header, options.unordered_names);
  EXPECT_EQ(options.unordered_names.count("totals_"), 1u);
  Report with;
  reprolint::lint_content("src/a.cpp", source, options, with);
  ASSERT_EQ(with.findings.size(), 1u);
  EXPECT_EQ(with.findings[0].rule, "reprolint-unordered-iteration");
  EXPECT_EQ(with.findings[0].line, 3);
}

TEST(Reprolint, NestedUnorderedInsideOrderedContainerIsNotCollected) {
  std::unordered_set<std::string> names;
  reprolint::collect_unordered_names(
      "std::map<int, std::unordered_set<int>> by_key_;\n", names);
  EXPECT_EQ(names.count("by_key_"), 0u);
}

TEST(Reprolint, JsonReportSchemaIsStable) {
  Report report;
  report.files_scanned = 3;
  report.suppressed = 2;
  report.findings.push_back({"src/a \"quoted\".cpp", 7, "reprolint-rand",
                             "message with \\ backslash", "rand();\ttabbed"});

  const repro::Json parsed = repro::Json::parse(reprolint::to_json(report));
  ASSERT_TRUE(parsed.is_object());
  EXPECT_EQ(parsed.find("tool")->as_string(), "reprolint");
  EXPECT_EQ(parsed.find("schema_version")->as_int64(), 1);
  EXPECT_EQ(parsed.find("files_scanned")->as_int64(), 3);
  EXPECT_EQ(parsed.find("suppressed")->as_int64(), 2);
  const auto& findings = parsed.find("findings")->as_array();
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].find("file")->as_string(), "src/a \"quoted\".cpp");
  EXPECT_EQ(findings[0].find("line")->as_int64(), 7);
  EXPECT_EQ(findings[0].find("rule")->as_string(), "reprolint-rand");
  EXPECT_EQ(findings[0].find("message")->as_string(), "message with \\ backslash");
  EXPECT_EQ(findings[0].find("snippet")->as_string(), "rand();\ttabbed");
}

TEST(Reprolint, JsonEmptyReportParses) {
  const repro::Json parsed = repro::Json::parse(reprolint::to_json(Report{}));
  EXPECT_TRUE(parsed.find("findings")->as_array().empty());
  EXPECT_EQ(parsed.find("files_scanned")->as_int64(), 0);
}

TEST(Reprolint, HazardsInsideStringsAndCommentsAreIgnored) {
  const std::string src =
      "const char* kDoc = \"call rand() and std::random_device here\";\n"
      "// rand() in a comment, std::thread too\n"
      "/* std::system_clock::now() in a block comment */\n"
      "const char* kRaw = R\"(rand(); std::shuffle)\";\n";
  Report report;
  reprolint::lint_content("src/doc.cpp", src, Options{}, report);
  EXPECT_TRUE(report.findings.empty());
  EXPECT_EQ(report.suppressed, 0u);
}

}  // namespace
