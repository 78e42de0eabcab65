#include "common/cli.hpp"

#include <charconv>
#include <cstdio>
#include <stdexcept>
#include <system_error>

#include "common/fmt.hpp"
#include "common/log.hpp"

namespace repro {

void CliParser::add_option(const std::string& name, const std::string& help,
                           const std::string& default_value) {
  options_[name] = Option{help, default_value, /*is_flag=*/false, /*seen=*/false};
}

void CliParser::add_flag(const std::string& name, const std::string& help) {
  options_[name] = Option{help, "", /*is_flag=*/true, /*seen=*/false};
}

bool CliParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage().c_str(), stdout);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      positionals_.push_back(std::move(arg));
      continue;
    }
    std::string name = arg.substr(2);
    std::string inline_value;
    bool has_inline = false;
    if (const auto eq = name.find('='); eq != std::string::npos) {
      inline_value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_inline = true;
    }
    auto it = options_.find(name);
    if (it == options_.end()) {
      throw FlagError(fmt("unknown flag --{} (see --help)", name));
    }
    Option& opt = it->second;
    opt.seen = true;
    if (opt.is_flag) {
      if (has_inline) throw FlagError(fmt("--{}: flag does not take a value", name));
      // clear+push_back sidesteps a GCC 12 -Wrestrict false positive
      // (PR105329) on literal assignment after the substr calls above.
      opt.value.clear();
      opt.value.push_back('1');
    } else if (has_inline) {
      opt.value = std::move(inline_value);
    } else {
      if (i + 1 >= argc) throw FlagError(fmt("--{}: missing value", name));
      opt.value = argv[++i];
    }
  }
  return true;
}

std::string CliParser::get(const std::string& name) const {
  auto it = options_.find(name);
  if (it == options_.end()) throw std::out_of_range("unregistered option: " + name);
  return it->second.value;
}

std::optional<std::string> CliParser::get_optional(const std::string& name) const {
  auto it = options_.find(name);
  if (it == options_.end() || (!it->second.seen && it->second.value.empty())) return std::nullopt;
  return it->second.value;
}

bool CliParser::get_flag(const std::string& name) const {
  auto it = options_.find(name);
  return it != options_.end() && it->second.seen;
}

namespace {

/// from_chars over the whole of `text`: a prefix that parses is not enough.
template <typename T>
T parse_whole(const std::string& flag, const std::string& text, const char* expected) {
  T value{};
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc{} || end != last) {
    throw FlagError(fmt("--{}: expected {}, got '{}'", flag, expected, text));
  }
  return value;
}

}  // namespace

std::vector<std::string> split_list(const std::string& csv) {
  std::vector<std::string> out;
  std::string current;
  for (char c : csv) {
    if (c == ',') {
      if (!current.empty()) out.push_back(std::move(current));
      current.clear();
    } else {
      current += c;
    }
  }
  if (!current.empty()) out.push_back(std::move(current));
  return out;
}

long long parse_int_flag(const std::string& flag, const std::string& text) {
  return parse_whole<long long>(flag, text, "a whole number");
}

std::uint16_t parse_port_flag(const std::string& flag, const std::string& text) {
  const long long value = parse_int_flag(flag, text);
  if (value < 0 || value > 65535) {
    throw FlagError(fmt("--{}: expected a port in 0..65535, got '{}'", flag, text));
  }
  return static_cast<std::uint16_t>(value);
}

int run_cli(int argc, char** argv, int (*body)(int, char**), int usage_exit) {
  try {
    return body(argc, argv);
  } catch (const FlagError& error) {
    log_error("{}", error.what());
    return usage_exit;
  }
}

long long CliParser::get_int(const std::string& name) const {
  return parse_int_flag(name, get(name));
}

double CliParser::get_double(const std::string& name) const {
  return parse_whole<double>(name, get(name), "a number");
}

std::string CliParser::usage() const {
  std::string out = fmt("{} — {}\n\noptions:\n", program_, description_);
  for (const auto& [name, opt] : options_) {
    out += fmt("  --{:<18} {}{}\n", name, opt.help,
               (!opt.is_flag && !opt.value.empty())
                   ? fmt(" (default: {})", opt.value)
                   : std::string{});
  }
  out += "  --help               show this message\n";
  return out;
}

}  // namespace repro
