// `tune_client` — drive a complete remote tuning study against a running
// `tuned` daemon over loopback. The client owns the objective (the simgpu
// benchmark model); the daemon owns the search. With --verify the same
// seeds are replayed through an in-process minimize() and the results are
// required to be byte-identical — the acceptance check for the ask/tell
// inversion.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "harness/context.hpp"
#include "service/client.hpp"
#include "service/session_manager.hpp"
#include "service/status_codec.hpp"
#include "store/results_store.hpp"
#include "tuner/registry.hpp"

namespace {

// Exact comparison, NaN-tolerant: two results match only when every field
// (including the bit pattern of best_value) agrees.
bool same_result(const repro::tuner::TuneResult& a, const repro::tuner::TuneResult& b) {
  if (a.best_config != b.best_config) return false;
  if (a.found_valid != b.found_valid) return false;
  if (a.evaluations_used != b.evaluations_used) return false;
  return std::memcmp(&a.best_value, &b.best_value, sizeof(double)) == 0;
}

constexpr const char* kCsvHeader =
    "algorithm,budget,seed,best_value,best_config,evaluations_used,found_valid,"
    "final_us";

// Complete (newline-terminated — rows are appended whole and flushed, so a
// kill at a cell boundary leaves only complete lines) data rows already in
// the campaign CSV. Same torn-tail rule as the session WAL: an unterminated
// final line is dropped and its cell reruns.
std::vector<std::string> completed_rows(const std::string& path) {
  std::vector<std::string> rows;
  std::ifstream in(path);
  if (!in) return rows;
  std::string line;
  bool first = true;
  while (std::getline(in, line)) {
    // getline sets eofbit when the file ends before the delimiter.
    if (in.eof()) break;
    if (first) {
      first = false;
      continue;  // header
    }
    if (!line.empty()) rows.push_back(line);
  }
  return rows;
}

std::string row_algorithm(const std::string& row) {
  const std::size_t comma = row.find(',');
  return comma == std::string::npos ? row : row.substr(0, comma);
}

std::string format_config(const repro::tuner::Configuration& config) {
  std::ostringstream out;
  for (std::size_t i = 0; i < config.size(); ++i) {
    if (i > 0) out << ' ';
    out << config[i];
  }
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace repro;
  CliParser cli("tune_client",
                "Remote tuning study over the tuned JSON-lines protocol");
  cli.add_option("host", "daemon host", "127.0.0.1");
  cli.add_option("port", "daemon port (required; see `tuned: ready port=`)", "0");
  cli.add_option("benchmark", "imagecl benchmark name", "mandelbrot");
  cli.add_option("arch", "simulated architecture name", "rtxtitan");
  cli.add_option("algorithms", "comma list of algorithm ids ('paper' = all five)",
                 "paper");
  cli.add_option("budget", "evaluation budget per algorithm", "100");
  cli.add_option("seed", "master seed", "2022");
  cli.add_option("repeats", "final re-measurement repeats", "10");
  cli.add_flag("verify", "replay the same seeds in-process and require "
                         "byte-identical results");
  cli.add_option("save-csv",
                 "append one flushed CSV row per completed algorithm cell "
                 "(campaign checkpoint; empty disables)",
                 "");
  cli.add_flag("resume", "skip algorithm cells already recorded in --save-csv");
  cli.add_option("stop-after",
                 "exit cleanly after completing this many cells this run "
                 "(0 = all; simulates a kill at a cell boundary)",
                 "0");
  cli.add_option("retries",
                 "transport retries per request: reconnect + deterministic "
                 "backoff + idempotent replay (0 disables)",
                 "0");
  cli.add_option("heartbeat-ms",
                 "bound blocking ask/result waits and re-issue them, keeping "
                 "the connection live (0 disables)",
                 "0");
  cli.add_option("endpoints",
                 "comma-separated 'host:port' (or bare port) failover list; "
                 "every (re)connect walks it front-to-back deterministically "
                 "(overrides --host/--port)",
                 "");
  cli.add_flag("warm-start",
               "seed each search from the daemon's results-store history for "
               "this (benchmark, arch) tenant (needs a daemon started with "
               "--store-dir; a cold store falls back to the normal search)");
  cli.add_flag("store-stats",
               "print the daemon's results-store statistics and exit");
  std::uint16_t port = 0;
  std::size_t budget = 0;
  std::uint64_t master_seed = 0;
  std::size_t repeats = 0;
  std::size_t stop_after = 0;
  service::ClientConfig client_config;
  try {
    if (!cli.parse(argc, argv)) return 0;
    port = parse_port_flag("port", cli.get("port"));
    budget = static_cast<std::size_t>(cli.get_int("budget"));
    master_seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    repeats = static_cast<std::size_t>(cli.get_int("repeats"));
    stop_after = static_cast<std::size_t>(cli.get_int("stop-after"));
    client_config.max_retries = static_cast<std::size_t>(cli.get_int("retries"));
    client_config.heartbeat_ms = static_cast<std::uint64_t>(cli.get_int("heartbeat-ms"));
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "tune_client: %s\n", error.what());
    return 2;
  }

  if (cli.get_flag("warm-start") && cli.get_flag("verify")) {
    // A warm-started search sees prior history the in-process replay does
    // not, so byte-identity against minimize() is not a meaningful check.
    std::fprintf(stderr,
                 "tune_client: --warm-start and --verify are mutually "
                 "exclusive (the warm prior changes the trajectory)\n");
    return 2;
  }

  std::vector<service::ClientConfig::Endpoint> endpoints;
  for (const std::string& item : split_list(cli.get("endpoints"))) {
    service::ClientConfig::Endpoint endpoint;
    if (!service::parse_endpoint(item, &endpoint.host, &endpoint.port)) {
      std::fprintf(stderr, "tune_client: bad --endpoints entry '%s'\n", item.c_str());
      return 2;
    }
    endpoints.push_back(endpoint);
  }
  if (port == 0 && endpoints.empty()) {
    std::fprintf(stderr, "tune_client: --port or --endpoints is required\n%s",
                 cli.usage().c_str());
    return 2;
  }

  const std::string algorithms_arg = cli.get("algorithms");
  const std::vector<std::string> algorithms =
      algorithms_arg == "paper" ? tuner::paper_algorithms() : split_list(algorithms_arg);

  harness::BenchmarkContext context(
      imagecl::benchmark_by_name(cli.get("benchmark")),
      simgpu::arch_by_name(cli.get("arch")),
      /*dataset_size=*/0, master_seed);
  std::printf("tune_client: %s on %s, optimum %.1f us, budget %zu\n",
              cli.get("benchmark").c_str(), cli.get("arch").c_str(),
              context.optimum_us(), budget);

  client_config.host = cli.get("host");
  client_config.port = port;
  client_config.endpoints = std::move(endpoints);
  service::Client client(client_config);
  try {
    client.connect();
  } catch (const std::exception& error) {
    log_error("tune_client: {}", error.what());
    return 1;
  }

  if (cli.get_flag("store-stats")) {
    try {
      const Json reply = client.store_stats();
      const store::StoreStats stats = service::decode_report<store::StoreStats>(reply);
      if (!stats.enabled) {
        std::printf("results store: disabled (start tuned with --store-dir)\n");
        client.disconnect();
        return 0;
      }
      const auto count = [](std::uint64_t value) {
        return static_cast<unsigned long long>(value);
      };
      // A router's reply sums its shards: no dir, and digests per shard.
      std::printf("results store: %s\n",
                  stats.dir.empty() ? "(aggregated across shards)" : stats.dir.c_str());
      std::printf("  live records   %llu across %llu tenants\n", count(stats.records),
                  count(stats.tenants));
      std::printf("  appends        %llu new, %llu deduplicated, %llu rejected\n",
                  count(stats.appends), count(stats.duplicates), count(stats.rejected));
      std::printf("  log            %llu lines, %llu bytes, %llu compactions\n",
                  count(stats.log_records), count(stats.log_bytes), count(stats.compactions));
      std::printf("  evictions      %llu (capacity FIFO)\n", count(stats.evictions));
      std::printf("  io errors      %llu\n", count(stats.io_errors));
      std::printf("  last load      %llu records%s\n", count(stats.loaded_records),
                  stats.torn_tail ? " (torn tail dropped)" : "");
      if (!stats.dir.empty()) {
        std::printf("  digest         %016llx\n", count(stats.digest));
      } else if (const Json* shards = reply.find("shards");
                 shards != nullptr && shards->is_array()) {
        // Digests are order-sensitive, so a cluster-wide one would be
        // meaningless; the router lists its shards in index order.
        std::size_t index = 0;
        for (const Json& shard : shards->as_array()) {
          std::printf("  digest         shard %zu: %016llx\n", index++,
                      count(service::decode_report<store::StoreStats>(shard).digest));
        }
      }
    } catch (const std::exception& error) {
      log_error("tune_client: store_stats failed: {}", error.what());
      return 1;
    }
    client.disconnect();
    return 0;
  }

  // Campaign checkpoint: one CSV row per finished algorithm cell, appended
  // whole and flushed so a kill between cells leaves only complete lines.
  // Resume rewrites the valid prefix first (the reattach-truncate rule the
  // session WAL uses) so a torn tail can never corrupt the next row.
  const std::string csv_path = cli.get("save-csv");
  std::set<std::string> done;
  std::FILE* csv = nullptr;
  if (!csv_path.empty()) {
    std::vector<std::string> kept;
    if (cli.get_flag("resume")) kept = completed_rows(csv_path);
    csv = std::fopen(csv_path.c_str(), "w");
    if (csv == nullptr) {
      log_error("tune_client: cannot open --save-csv {}", csv_path);
      return 1;
    }
    std::fprintf(csv, "%s\n", kCsvHeader);
    for (const std::string& row : kept) {
      std::fprintf(csv, "%s\n", row.c_str());
      done.insert(row_algorithm(row));
    }
    std::fflush(csv);
  }
  std::size_t cells_this_run = 0;

  bool all_verified = true;
  for (const std::string& id : algorithms) {
    if (done.count(id) != 0) {
      std::printf("%-6s already recorded, skipped (--resume)\n", id.c_str());
      continue;
    }
    // The algorithm RNG lives server-side; the objective RNG lives here.
    // Distinct streams per role keep the remote and in-process replays on
    // identical random sequences.
    const std::uint64_t algo_seed =
        seed_combine(master_seed, seed_from_string("algorithm:" + id));
    const std::uint64_t objective_seed =
        seed_combine(master_seed, seed_from_string("objective:" + id));

    service::OpenParams params;
    params.algorithm = id;
    params.budget = budget;
    params.seed = algo_seed;
    // Tenant identity rides every open: a store-enabled daemon records this
    // study's tells under it (and --warm-start reads them back).
    params.benchmark = cli.get("benchmark");
    params.arch = cli.get("arch");
    params.warm_start = cli.get_flag("warm-start");

    Rng objective_rng(objective_seed);
    const tuner::Objective objective = context.make_objective(objective_rng);
    service::Client::RemoteResult remote;
    try {
      remote = client.remote_minimize(params, objective);
    } catch (const std::exception& error) {
      log_error("tune_client: {} failed: {}", id, error.what());
      return 1;
    }

    Rng final_rng(seed_combine(master_seed, seed_from_string("final:" + id)));
    const double final_us = remote.result.found_valid
                                ? context.measure_repeated_us(remote.result.best_config,
                                                              final_rng, repeats)
                                : std::nan("");
    std::printf("%-6s best %.1f us  final %.1f us  (%zu evals, %zu faults)\n",
                id.c_str(), remote.result.best_value, final_us,
                remote.result.evaluations_used, remote.counters.faults());

    if (csv != nullptr) {
      // %.17g round-trips doubles exactly, so an interrupted-and-resumed
      // campaign CSV is byte-identical to an uninterrupted one.
      std::fprintf(csv, "%s,%zu,%llu,%.17g,%s,%zu,%d,%.17g\n", id.c_str(), budget,
                   static_cast<unsigned long long>(algo_seed),
                   remote.result.best_value,
                   format_config(remote.result.best_config).c_str(),
                   remote.result.evaluations_used,
                   remote.result.found_valid ? 1 : 0, final_us);
      std::fflush(csv);
    }
    ++cells_this_run;
    if (stop_after > 0 && cells_this_run >= stop_after) {
      std::printf("tune_client: stopping after %zu cell(s) (--stop-after)\n",
                  cells_this_run);
      if (csv != nullptr) std::fclose(csv);
      client.disconnect();
      return 0;
    }

    if (cli.get_flag("verify")) {
      Rng algo_rng(algo_seed);
      Rng replay_rng(objective_seed);
      const tuner::Objective replay = context.make_objective(replay_rng);
      tuner::Evaluator evaluator(context.space(), replay, budget);
      const tuner::TuneResult direct =
          tuner::make_algorithm(id)->minimize(context.space(), evaluator, algo_rng);
      const bool match = same_result(remote.result, direct);
      all_verified = all_verified && match;
      std::printf("       verify: %s\n", match ? "byte-identical to in-process minimize()"
                                               : "MISMATCH vs in-process minimize()");
    }
  }

  const auto status = service::decode_report<service::StatusReport>(client.status());
  std::printf("daemon: %zu sessions opened, %zu tells served\n", status.opened, status.tells);
  if (csv != nullptr) std::fclose(csv);
  client.disconnect();
  if (cli.get_flag("verify") && !all_verified) {
    log_error("tune_client: verification FAILED");
    return 1;
  }
  return 0;
}
