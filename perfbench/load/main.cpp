// pbload: the perfbench load process. run.py builds it, starts any daemons a
// workload needs, and runs
//   pbload study --seed N --seconds S --trace 0|1 [--mini] [--golden CSV]
//                [--trace-out FILE]
//   pbload serve --workload W --seed N --seconds S --trace 0|1 --router-port P
//                --primary-port P --pids PRIMARY,STANDBY,ROUTER [--warmup S]
//                [--probe-standby-port P --scratch DIR --trace-out FILE]
// and reads the one JSON line it prints last: end-to-end metrics with sample
// counts, per-layer metrics, per-phase operation counts and notes.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <malloc.h>
#include <map>
#include <string>

#include "common/log.hpp"
#include "workloads.hpp"

namespace {

std::map<std::string, std::string> parse_flags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) throw std::runtime_error("unexpected argument " + key);
    key = key.substr(2);
    if (key == "mini") {
      flags[key] = "1";
    } else if (i + 1 < argc) {
      flags[key] = argv[++i];
    } else {
      throw std::runtime_error("--" + key + " needs a value");
    }
  }
  return flags;
}

std::string get(const std::map<std::string, std::string>& flags, const std::string& key,
                const std::string& fallback = "") {
  const auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

std::uint64_t to_u64(const std::string& text) { return std::strtoull(text.c_str(), nullptr, 10); }

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: pbload study|serve [flags]\n");
    return 2;
  }
  repro::set_log_level(repro::LogLevel::kWarn);
  // A fixed mmap threshold turns off glibc's adaptive one, so large blocks
  // always go back to the OS when freed and peak RSS does not depend on the
  // order in which threads happened to free them.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  perfbench::Report report;
  try {
    const std::string mode = argv[1];
    const auto flags = parse_flags(argc, argv);
    if (mode == "study") {
      perfbench::StudyArgs args;
      args.seed = to_u64(get(flags, "seed", "1592653589"));
      args.seconds = std::strtod(get(flags, "seconds", "15").c_str(), nullptr);
      args.trace = get(flags, "trace", "0") == "1";
      args.mini = flags.count("mini") != 0;
      args.golden_csv = get(flags, "golden");
      args.trace_path = get(flags, "trace-out");
      perfbench::run_study_workload(args, report);
    } else if (mode == "serve") {
      perfbench::ServeArgs args;
      args.workload = get(flags, "workload", "serve-tell");
      args.seed = to_u64(get(flags, "seed", "1"));
      args.seconds = std::strtod(get(flags, "seconds", "15").c_str(), nullptr);
      args.warmup_seconds = std::strtod(get(flags, "warmup", "1").c_str(), nullptr);
      args.trace = get(flags, "trace", "0") == "1";
      args.router_port = static_cast<std::uint16_t>(to_u64(get(flags, "router-port")));
      args.primary_port = static_cast<std::uint16_t>(to_u64(get(flags, "primary-port")));
      args.probe_standby_port =
          static_cast<std::uint16_t>(to_u64(get(flags, "probe-standby-port")));
      const std::string pids = get(flags, "pids");
      if (std::sscanf(pids.c_str(), "%d,%d,%d", &args.primary_pid, &args.standby_pid,
                      &args.router_pid) != 3) {
        throw std::runtime_error("--pids needs PRIMARY,STANDBY,ROUTER");
      }
      args.scratch_dir = get(flags, "scratch", ".bench_run/scratch");
      args.trace_path = get(flags, "trace-out");
      perfbench::run_serve_workload(args, report);
    } else {
      throw std::runtime_error("unknown mode " + mode);
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "pbload: %s\n", error.what());
    return 1;
  }
  std::printf("%s\n", report.to_json().dump().c_str());
  return 0;
}
