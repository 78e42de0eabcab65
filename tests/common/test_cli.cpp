// CLI parser tests: all accepted syntaxes, defaults, and error handling.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/cli.hpp"

namespace repro {
namespace {

CliParser make_parser() {
  CliParser cli("prog", "test program");
  cli.add_option("name", "a name", "default");
  cli.add_option("count", "a count", "3");
  cli.add_option("rate", "a rate", "1.5");
  cli.add_flag("fast", "go fast");
  return cli;
}

TEST(Cli, DefaultsApplyWhenUnset) {
  auto cli = make_parser();
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_EQ(cli.get("name"), "default");
  EXPECT_EQ(cli.get_int("count"), 3);
  EXPECT_DOUBLE_EQ(cli.get_double("rate"), 1.5);
  EXPECT_FALSE(cli.get_flag("fast"));
}

TEST(Cli, SpaceSeparatedValue) {
  auto cli = make_parser();
  const char* argv[] = {"prog", "--name", "alpha"};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_EQ(cli.get("name"), "alpha");
}

TEST(Cli, EqualsValue) {
  auto cli = make_parser();
  const char* argv[] = {"prog", "--count=42"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_EQ(cli.get_int("count"), 42);
}

TEST(Cli, FlagPresence) {
  auto cli = make_parser();
  const char* argv[] = {"prog", "--fast"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_TRUE(cli.get_flag("fast"));
}

/// parse(argv) must throw a FlagError whose message names `flag`: a false
/// return means --help, so an error that returned false would exit 0.
void expect_parse_error(int argc, const char* const* argv, const std::string& flag) {
  auto cli = make_parser();
  try {
    (void)cli.parse(argc, argv);
    ADD_FAILURE() << "parse accepted " << flag;
  } catch (const FlagError& error) {
    EXPECT_NE(std::string(error.what()).find(flag), std::string::npos) << error.what();
  }
}

TEST(Cli, FlagRejectsValue) {
  const char* argv[] = {"prog", "--fast=1"};
  expect_parse_error(2, argv, "--fast");
}

TEST(Cli, UnknownFlagFails) {
  const char* argv[] = {"prog", "--bogus", "1"};
  expect_parse_error(3, argv, "--bogus");
}

TEST(Cli, MissingValueFails) {
  const char* argv[] = {"prog", "--name"};
  expect_parse_error(2, argv, "--name");
}

TEST(Cli, HelpReturnsFalse) {
  auto cli = make_parser();
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST(Cli, PositionalsCollected) {
  auto cli = make_parser();
  const char* argv[] = {"prog", "one", "--fast", "two"};
  ASSERT_TRUE(cli.parse(4, argv));
  ASSERT_EQ(cli.positionals().size(), 2u);
  EXPECT_EQ(cli.positionals()[0], "one");
  EXPECT_EQ(cli.positionals()[1], "two");
}

TEST(Cli, GetOptionalEmptyWhenNoDefaultNorValue) {
  CliParser cli("p", "d");
  cli.add_option("out", "output dir");
  const char* argv[] = {"p"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_FALSE(cli.get_optional("out").has_value());
}

TEST(Cli, UnregisteredGetThrows) {
  auto cli = make_parser();
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_THROW((void)cli.get("never"), std::out_of_range);
}

/// Parses `--flag value` with make_parser() and returns the parser.
CliParser parsed_with(const char* flag, const char* value) {
  auto cli = make_parser();
  const char* argv[] = {"prog", flag, value};
  EXPECT_TRUE(cli.parse(3, argv));
  return cli;
}

TEST(Cli, GetIntAcceptsWholeNumbersOnly) {
  EXPECT_EQ(parsed_with("--count", "-4").get_int("count"), -4);
  EXPECT_EQ(parsed_with("--count", "1592653589").get_int("count"), 1592653589);
  for (const char* bad : {"abc", "32abc", "1.5", "", " 7", "0x10", "99999999999999999999"}) {
    const auto cli = parsed_with("--count", bad);
    try {
      (void)cli.get_int("count");
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("--count"), std::string::npos) << error.what();
    }
  }
}

TEST(Cli, GetDoubleRejectsTrailingCharacters) {
  EXPECT_DOUBLE_EQ(parsed_with("--rate", "32").get_double("rate"), 32.0);
  EXPECT_DOUBLE_EQ(parsed_with("--rate", "-0.25").get_double("rate"), -0.25);
  EXPECT_DOUBLE_EQ(parsed_with("--rate", "1e3").get_double("rate"), 1000.0);
  // Non-finite values parse; callers that need a finite value check it.
  EXPECT_TRUE(std::isnan(parsed_with("--rate", "nan").get_double("rate")));
  for (const char* bad : {"abc", "32abc", "", "1.5.2", " 2"}) {
    const auto cli = parsed_with("--rate", bad);
    try {
      (void)cli.get_double("rate");
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("--rate"), std::string::npos) << error.what();
    }
  }
}

TEST(Cli, ParsePortFlagAcceptsPortsOnly) {
  EXPECT_EQ(parse_port_flag("port", "0"), 0u);
  EXPECT_EQ(parse_port_flag("port", "65535"), 65535u);
  for (const char* bad : {"12ab", "-1", "65536", "70000", "", "1.5"}) {
    try {
      (void)parse_port_flag("port", bad);
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("--port"), std::string::npos) << error.what();
    }
  }
}

TEST(Cli, SplitListSkipsEmptyItems) {
  EXPECT_EQ(split_list("a,b,,c,"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(split_list("").empty());
  EXPECT_TRUE(split_list(",,").empty());
  EXPECT_EQ(split_list("one"), (std::vector<std::string>{"one"}));
}

TEST(Cli, UsageListsOptions) {
  auto cli = make_parser();
  const std::string usage = cli.usage();
  EXPECT_NE(usage.find("--name"), std::string::npos);
  EXPECT_NE(usage.find("--fast"), std::string::npos);
  EXPECT_NE(usage.find("default: 3"), std::string::npos);
}

}  // namespace
}  // namespace repro
