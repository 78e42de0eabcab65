#pragma once
// Tiny command-line flag parser shared by bench binaries and examples.
// Supports `--name value`, `--name=value`, boolean `--flag`, and collects
// positionals. Unknown flags are an error so typos fail loudly, and so is a
// numeric value that is not a number from its first character to its last.
// Every such error is a FlagError naming the flag; callers map it to a
// nonzero exit (run_cli does this for a whole program).

#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace repro {

/// An unknown flag, a missing or unexpected value, or a value that does not
/// parse; the message names the flag.
class FlagError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

class CliParser {
 public:
  CliParser(std::string program, std::string description)
      : program_(std::move(program)), description_(std::move(description)) {}

  /// Register a value-taking option. `help` shows in usage.
  void add_option(const std::string& name, const std::string& help,
                  const std::string& default_value = "");
  /// Register a boolean flag (present => true).
  void add_flag(const std::string& name, const std::string& help);

  /// Parse argv. Returns false after printing usage for --help; throws
  /// FlagError naming the flag for an unknown flag, a value-taking option
  /// without a value, or a value on a boolean flag.
  [[nodiscard]] bool parse(int argc, const char* const* argv);

  [[nodiscard]] std::string get(const std::string& name) const;
  [[nodiscard]] std::optional<std::string> get_optional(const std::string& name) const;
  [[nodiscard]] bool get_flag(const std::string& name) const;
  /// Value as a whole number; throws FlagError naming the flag when it is
  /// anything else ("abc", "32abc", "1.5", out of range).
  [[nodiscard]] long long get_int(const std::string& name) const;
  /// Value as a number ("nan" and "inf" included); throws FlagError naming
  /// the flag on anything else.
  [[nodiscard]] double get_double(const std::string& name) const;
  [[nodiscard]] const std::vector<std::string>& positionals() const noexcept { return positionals_; }

  [[nodiscard]] std::string usage() const;

 private:
  struct Option {
    std::string help;
    std::string value;
    bool is_flag = false;
    bool seen = false;
  };

  std::string program_;
  std::string description_;
  std::map<std::string, Option> options_;
  std::vector<std::string> positionals_;
};

/// Items of a comma-separated list value, empty items skipped.
[[nodiscard]] std::vector<std::string> split_list(const std::string& csv);

/// Parse `text`, the value of `--flag`, as a whole base-10 number; throws
/// FlagError naming the flag when it is anything else.
[[nodiscard]] long long parse_int_flag(const std::string& flag, const std::string& text);

/// Parse `text`, the value of `--flag`, as a TCP port (0..65535); throws
/// FlagError naming the flag when it is anything else.
[[nodiscard]] std::uint16_t parse_port_flag(const std::string& flag, const std::string& text);

/// Run a command-line program's `body`: a FlagError escaping it logs its
/// one line and exits with `usage_exit` instead of aborting the process.
[[nodiscard]] int run_cli(int argc, char** argv, int (*body)(int, char**),
                          int usage_exit = 1);

}  // namespace repro
