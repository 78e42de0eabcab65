// loadgen: cluster load generator + failover drill, emitting the committed
// BENCH_service.json snapshot.
//
// Spins up a replicated shard (primary shipping its WAL to a hot standby)
// behind an in-process tunelb Router, drives N concurrent client threads
// through tokened ask/tell sessions, and records per-op latencies. With
// --failover it additionally murders the primary mid-run (stop + promote,
// the in-process equivalent of SIGKILL: the standby has only the
// acknowledged record stream) and measures the blackout window — the wall
// time from the crash until the first client op completes against the
// promoted standby through the router.
//
// Two load models:
//  - Closed loop (default): each worker runs its sessions back to back, so
//    offered load self-throttles to service capacity.
//  - Open loop (--arrival-rate > 0): session k starts at the deterministic
//    instant k/rate regardless of how the previous ones are faring, which
//    is what exposes overload behavior. Workers carry per-tenant identities
//    (--tenants), the shard runs with per-tenant quotas + a bounded
//    admission queue, and the report adds pushback/shed rates, per-tenant
//    ask percentiles, and the fairness headline (max/min tenant
//    throughput).
//
// Timing here is measurement *of the service*, not of tuning: no timestamp
// feeds a search result. Latencies are steady-clock; the report rounds to
// whole microseconds.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/router.hpp"
#include "service/server.hpp"
#include "store/results_store.hpp"
#include "tuner/registry.hpp"

namespace {

using namespace repro;
using Clock = std::chrono::steady_clock;

tuner::Evaluation synth_eval(const tuner::ParamSpace& space,
                             const tuner::Configuration& config) {
  std::uint64_t state = seed_combine(99, space.encode(config) + 1);
  const std::uint64_t h = splitmix64(state);
  return tuner::Evaluation{1.0 + static_cast<double>(h >> 11) * 0x1.0p-53, true};
}

service::OpenParams open_params(std::size_t budget, std::uint64_t seed) {
  service::OpenParams params;
  params.algorithm = "rs";
  params.budget = budget;
  params.seed = seed;
  params.custom_space = true;
  params.params = {{"a", 1, 8}, {"b", 1, 8}, {"c", 0, 5}};
  return params;
}

/// Tenant-identified botpe open for the warm-vs-cold split: same space as
/// the main workload, but carrying (benchmark, arch) so the daemon's store
/// recognizes the session.
service::OpenParams tenant_params(std::size_t budget, std::uint64_t seed, bool warm) {
  service::OpenParams params = open_params(budget, seed);
  params.algorithm = "botpe";
  params.benchmark = "loadgen";
  params.arch = "sim";
  params.warm_start = warm;
  return params;
}

std::string fresh_dir() {
  char name[] = "/tmp/repro_loadgen_XXXXXX";
  const char* dir = mkdtemp(name);
  if (dir == nullptr) {
    std::cerr << "loadgen: mkdtemp failed\n";
    std::exit(1);
  }
  return dir;
}

/// One worker's measurements, merged after the join.
struct WorkerStats {
  std::vector<double> ask_us;
  std::vector<double> tell_us;
  std::size_t sessions = 0;
  std::size_t evaluations = 0;
  std::size_t errors = 0;
  // Open-loop admission accounting.
  std::size_t offered = 0;    ///< sessions the arrival schedule started
  std::size_t pushbacks = 0;  ///< retry_later answers (open or tell)
  std::size_t sheds = 0;      ///< sessions abandoned after repeated pushback
};

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

std::string json_number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.1f", value);
  return buffer;
}

int run(int argc, char** argv) {
  CliParser cli("loadgen",
          "drive a replicated tuned shard behind tunelb and report "
          "throughput, ask/tell latency percentiles, and (with --failover) "
          "the promotion blackout window as BENCH_service.json");
  cli.add_option("clients", "concurrent client threads", "4");
  cli.add_option("sessions", "sessions per client", "8");
  cli.add_option("budget", "evaluations per session", "24");
  cli.add_option("out", "output JSON path", "BENCH_service.json");
  cli.add_flag("failover", "kill the primary mid-run and measure blackout");
  cli.add_option("arrival-rate",
                 "open-loop session arrivals per second: session k starts at "
                 "the fixed instant k/rate whether or not earlier sessions "
                 "finished (0 = closed loop)",
                 "0");
  cli.add_option("tenants",
                 "named tenants the open-loop workers identify as "
                 "(round-robin over workers)",
                 "4");
  cli.add_option("tenant-max-sessions",
                 "per-tenant session quota on the shard (open loop)", "4");
  cli.add_option("tenant-max-inflight-tells",
                 "per-tenant in-flight tell quota on the shard (open loop)",
                 "0");
  cli.add_option("admission-queue-cap",
                 "shard admission queue bound (open loop)", "64");
  cli.add_option("admission-wait-ms",
                 "longest a queued open may wait on the shard (open loop)",
                 "200");
  if (!cli.parse(argc, argv)) return 0;
  const std::size_t clients = static_cast<std::size_t>(cli.get_int("clients"));
  const std::size_t sessions_per_client =
      static_cast<std::size_t>(cli.get_int("sessions"));
  const std::size_t budget = static_cast<std::size_t>(cli.get_int("budget"));
  const bool failover = cli.get_flag("failover");
  const std::string out_path = cli.get("out");
  const double arrival_rate = cli.get_double("arrival-rate");
  const bool open_loop = arrival_rate > 0.0;
  const std::size_t tenants =
      std::max<std::size_t>(1, static_cast<std::size_t>(cli.get_int("tenants")));
  if (open_loop && failover) {
    std::cerr << "loadgen: --arrival-rate and --failover are separate drills; "
                 "run them separately\n";
    return 2;
  }

  const std::string dir = fresh_dir();

  service::TenantQuotas quotas;
  if (open_loop) {
    quotas.max_sessions_per_tenant =
        static_cast<std::size_t>(cli.get_int("tenant-max-sessions"));
    quotas.max_inflight_tells_per_tenant =
        static_cast<std::size_t>(cli.get_int("tenant-max-inflight-tells"));
    quotas.admission_queue_cap =
        static_cast<std::size_t>(cli.get_int("admission-queue-cap"));
    quotas.admission_wait =
        std::chrono::milliseconds(cli.get_int("admission-wait-ms"));
  }

  // The default 250ms pushback hint (scaled by queue depth) is tuned for
  // polite production clients; the overload drill wants tight re-offers so
  // a 10k-session run converges in seconds rather than parking workers for
  // multi-second hints.
  const std::uint64_t retry_hint_ms = open_loop ? 20 : 250;

  // Every client connection is long-lived and pins one connection worker
  // for its whole life (the server's pool model), so the pools must be at
  // least as wide as the client fleet — with 8 default workers and 32
  // clients, 24 connections would never be served at all, and an
  // admission-parked open would block unrelated closes behind it.
  const std::size_t conn_threads = clients + 4;

  service::ServerConfig standby_config;
  standby_config.standby = true;
  standby_config.connection_threads = conn_threads;
  standby_config.limits.state_dir = dir + "/standby";
  standby_config.store_dir = dir + "/standby-store";
  standby_config.limits.quotas = quotas;
  standby_config.limits.retry_after_ms = retry_hint_ms;
  service::TuneServer standby(standby_config);
  standby.start();

  auto primary = std::make_unique<service::TuneServer>([&] {
    service::ServerConfig config;
    config.limits.state_dir = dir + "/primary";
    config.limits.ship.port = standby.port();
    config.store_dir = dir + "/primary-store";
    config.limits.quotas = quotas;
    config.limits.retry_after_ms = retry_hint_ms;
    config.connection_threads = conn_threads;
    return config;
  }());
  primary->start();

  service::RouterConfig router_config;
  router_config.connection_threads = conn_threads;
  router_config.shards = {{"127.0.0.1", primary->port(), "127.0.0.1",
                           standby.port()}};
  router_config.probe_interval = std::chrono::milliseconds(100);
  router_config.probe_timeout = std::chrono::milliseconds(500);
  service::Router router(router_config);
  router.start();

  const tuner::ParamSpace space({{"a", 1, 8}, {"b", 1, 8}, {"c", 0, 5}});

  // Warm-vs-cold split: pre-populate the results store over the wire, then
  // run paired botpe sessions with and without warm start, recording ask
  // latencies per arm. Runs before the main workload (and before any
  // failover drill) so the seeded prior lives on the primary serving it;
  // the split prices what a warm open costs and what the larger model
  // history does to per-ask latency.
  constexpr std::size_t kPriorRows = 256;
  constexpr std::size_t kSplitSessions = 4;
  const std::size_t split_budget = std::min<std::size_t>(budget, 16);
  std::vector<double> cold_ask_us;
  std::vector<double> warm_ask_us;
  std::size_t split_errors = 0;
  std::size_t prior_rows_imported = 0;
  // The warm/cold split prices the store prior; the open-loop drill is
  // about admission, so it skips the split to keep 10k+-session runs lean.
  if (!open_loop) {
    service::ClientConfig split_config;
    split_config.port = router.port();
    split_config.name = "loadgen-split";
    split_config.max_retries = 40;
    split_config.backoff_initial_ms = 25;
    split_config.backoff_max_ms = 400;
    service::Client seeder(split_config);
    store::TenantSnapshot snapshot;
    snapshot.key = store::StoreKey{
        "loadgen", "sim",
        service::space_fingerprint_of(tenant_params(split_budget, 0, false))};
    Rng prior_rng(seed_combine(404, 1));
    snapshot.rows.reserve(kPriorRows);
    for (std::size_t i = 0; i < kPriorRows; ++i) {
      const tuner::Configuration prior_config = space.sample(prior_rng);
      const tuner::Evaluation eval = synth_eval(space, prior_config);
      snapshot.rows.push_back(
          store::StoreRecord{prior_config, eval.value, eval.valid});
    }
    try {
      prior_rows_imported = seeder.store_import({snapshot});
      for (const bool warm : {false, true}) {
        std::vector<double>& sink = warm ? warm_ask_us : cold_ask_us;
        for (std::size_t s = 0; s < kSplitSessions; ++s) {
          const std::string token = std::string("loadgen-split#") +
                                    (warm ? "warm" : "cold") + std::to_string(s);
          const std::string id = seeder.open(
              tenant_params(split_budget, seed_combine(505, s), warm), token);
          while (true) {
            const auto ask_started = Clock::now();
            const auto config_opt = seeder.ask(id);
            sink.push_back(
                std::chrono::duration<double, std::micro>(Clock::now() -
                                                          ask_started)
                    .count());
            if (!config_opt) break;
            (void)seeder.tell(id, synth_eval(space, *config_opt));
          }
          seeder.close_session(id);
        }
      }
    } catch (const std::exception& error) {
      ++split_errors;
      std::cerr << "loadgen: warm/cold split failed: " << error.what() << "\n";
    }
  }
  std::sort(cold_ask_us.begin(), cold_ask_us.end());
  std::sort(warm_ask_us.begin(), warm_ask_us.end());

  std::vector<WorkerStats> stats(clients);
  std::atomic<std::size_t> completed{0};
  std::atomic<std::size_t> errors_logged{0};
  const std::size_t total_sessions = clients * sessions_per_client;

  const auto run_started = Clock::now();
  std::vector<std::thread> workers;
  workers.reserve(clients);
  for (std::size_t w = 0; w < clients; ++w) {
    workers.emplace_back([&, w] {  // NOLINT(reprolint-raw-thread)
      WorkerStats& mine = stats[w];
      service::ClientConfig config;
      config.port = router.port();
      config.name = "loadgen-" + std::to_string(w);
      if (open_loop) {
        // Fail fast: retry_later must surface as a typed error so this
        // driver can count pushback and own the shed decision.
        config.tenant = "tenant-" + std::to_string(w % tenants);
        config.max_retries = 0;
      } else {
        config.max_retries = 40;
        config.backoff_initial_ms = 25;
        config.backoff_max_ms = 400;
      }
      service::Client client(config);
      const auto log_failure = [&](std::size_t s, const char* what) {
        ++mine.errors;
        if (errors_logged.fetch_add(1) < 10) {
          std::cerr << "loadgen: worker " << w << " session " << s
                    << " failed: " << what << "\n";
        }
      };
      const auto run_session = [&](std::size_t s, std::uint64_t seed,
                                   const std::string& token) {
        const std::string id = client.open(open_params(budget, seed), token);
        while (true) {
          const auto ask_started = Clock::now();
          const auto config_opt = client.ask(id);
          mine.ask_us.push_back(
              std::chrono::duration<double, std::micro>(Clock::now() -
                                                        ask_started)
                  .count());
          if (!config_opt) break;
          const auto tell_started = Clock::now();
          while (true) {
            try {
              (void)client.tell(id, synth_eval(space, *config_opt));
              break;
            } catch (const service::ProtocolError& error) {
              // In-flight tell quota pushback: not applied, safe to replay.
              if (error.code != service::ErrorCode::kRetryLater) throw;
              ++mine.pushbacks;
              std::this_thread::sleep_for(std::chrono::milliseconds(
                  error.retry_after_ms > 0 ? error.retry_after_ms : 50));
            }
          }
          mine.tell_us.push_back(
              std::chrono::duration<double, std::micro>(Clock::now() -
                                                        tell_started)
                  .count());
          ++mine.evaluations;
        }
        client.close_session(id);
        ++mine.sessions;
        (void)s;
      };
      if (open_loop) {
        // Static arrival partition: worker w owns sessions w, w+clients, …
        // each pinned to its schedule instant k/rate. A worker running
        // late only delays its own arrivals — offered load never adapts
        // to service pressure, which is the point of the open loop.
        for (std::size_t k = w; k < total_sessions; k += clients) {
          const auto start_at =
              run_started +
              std::chrono::microseconds(static_cast<std::uint64_t>(
                  static_cast<double>(k) * 1e6 / arrival_rate));
          std::this_thread::sleep_until(start_at);
          ++mine.offered;
          const std::string token = "loadgen#" + std::to_string(k);
          try {
            bool admitted = false;
            for (std::size_t attempt = 0; attempt < 25 && !admitted; ++attempt) {
              try {
                run_session(k, seed_combine(w, k), token);
                admitted = true;
              } catch (const service::ProtocolError& error) {
                if (error.code != service::ErrorCode::kRetryLater) throw;
                ++mine.pushbacks;
                std::this_thread::sleep_for(std::chrono::milliseconds(
                    error.retry_after_ms > 0 ? error.retry_after_ms : 50));
              }
            }
            if (!admitted) ++mine.sheds;
          } catch (const std::exception& error) {
            log_failure(k, error.what());
          }
          completed.fetch_add(1);
        }
        return;
      }
      for (std::size_t s = 0; s < sessions_per_client; ++s) {
        const std::string token =
            "loadgen#" + std::to_string(w) + "." + std::to_string(s);
        try {
          run_session(s, seed_combine(w, s), token);
        } catch (const std::exception& error) {
          log_failure(s, error.what());
        }
        completed.fetch_add(1);
      }
    });
  }

  double blackout_ms = 0.0;
  if (failover) {
    // Let the run reach steady state, then kill the primary. Blackout =
    // crash instant -> first successful client op on the promoted standby,
    // measured by an independent probe session through the router.
    while (completed.load() < total_sessions / 4) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    const auto crash_started = Clock::now();
    primary->stop();
    primary.reset();
    service::ClientConfig probe_config;
    probe_config.port = router.port();
    probe_config.name = "loadgen-probe";
    probe_config.max_retries = 100;
    probe_config.backoff_initial_ms = 5;
    probe_config.backoff_max_ms = 100;
    service::Client probe(probe_config);
    const std::string id =
        probe.open(open_params(budget, seed_combine(7, 7)), "loadgen#probe");
    const auto config_opt = probe.ask(id);
    if (config_opt) (void)probe.tell(id, synth_eval(space, *config_opt));
    probe.close_session(id);
    blackout_ms = std::chrono::duration<double, std::milli>(Clock::now() -
                                                            crash_started)
                      .count();
  }

  for (std::thread& worker : workers) worker.join();
  const double wall_seconds =
      std::chrono::duration<double>(Clock::now() - run_started).count();

  WorkerStats merged;
  for (WorkerStats& one : stats) {
    merged.ask_us.insert(merged.ask_us.end(), one.ask_us.begin(), one.ask_us.end());
    merged.tell_us.insert(merged.tell_us.end(), one.tell_us.begin(),
                          one.tell_us.end());
    merged.sessions += one.sessions;
    merged.evaluations += one.evaluations;
    merged.errors += one.errors;
    merged.offered += one.offered;
    merged.pushbacks += one.pushbacks;
    merged.sheds += one.sheds;
  }
  std::sort(merged.ask_us.begin(), merged.ask_us.end());
  std::sort(merged.tell_us.begin(), merged.tell_us.end());

  // Per-tenant rollup (open loop): worker w serves tenant w % tenants.
  std::vector<WorkerStats> by_tenant(open_loop ? tenants : 0);
  if (open_loop) {
    for (std::size_t w = 0; w < clients; ++w) {
      WorkerStats& bucket = by_tenant[w % tenants];
      WorkerStats& one = stats[w];
      bucket.ask_us.insert(bucket.ask_us.end(), one.ask_us.begin(),
                           one.ask_us.end());
      bucket.sessions += one.sessions;
      bucket.evaluations += one.evaluations;
      bucket.offered += one.offered;
      bucket.pushbacks += one.pushbacks;
      bucket.sheds += one.sheds;
    }
    for (WorkerStats& bucket : by_tenant)
      std::sort(bucket.ask_us.begin(), bucket.ask_us.end());
  }

  const std::vector<service::ShardSnapshot> shards = router.shards();
  const std::size_t promotions = shards.empty() ? 0 : shards[0].promotions;

  std::string report = "{\n";
  report += "  \"tool\": \"loadgen\",\n";
  report += "  \"topology\": {\"shards\": 1, \"hot_standby\": true, \"router\": \"tunelb\"},\n";
  report += "  \"clients\": " + std::to_string(clients) + ",\n";
  report += "  \"sessions\": " + std::to_string(merged.sessions) + ",\n";
  report += "  \"budget_per_session\": " + std::to_string(budget) + ",\n";
  report += "  \"evaluations\": " + std::to_string(merged.evaluations) + ",\n";
  report += "  \"errors\": " + std::to_string(merged.errors) + ",\n";
  report += "  \"wall_seconds\": " + json_number(wall_seconds) + ",\n";
  report += "  \"throughput_evals_per_sec\": " +
            json_number(wall_seconds > 0.0
                            ? static_cast<double>(merged.evaluations) / wall_seconds
                            : 0.0) +
            ",\n";
  report += "  \"ask_latency_us\": {\"p50\": " + json_number(percentile(merged.ask_us, 0.50)) +
            ", \"p90\": " + json_number(percentile(merged.ask_us, 0.90)) +
            ", \"p99\": " + json_number(percentile(merged.ask_us, 0.99)) + "},\n";
  report += "  \"tell_latency_us\": {\"p50\": " + json_number(percentile(merged.tell_us, 0.50)) +
            ", \"p90\": " + json_number(percentile(merged.tell_us, 0.90)) +
            ", \"p99\": " + json_number(percentile(merged.tell_us, 0.99)) + "},\n";
  report += "  \"warm_start\": {\"prior_rows\": " +
            std::to_string(prior_rows_imported) +
            ", \"sessions_per_arm\": " + std::to_string(kSplitSessions) +
            ", \"budget\": " + std::to_string(split_budget) +
            ", \"errors\": " + std::to_string(split_errors) +
            ",\n    \"cold_ask_us\": {\"p50\": " + json_number(percentile(cold_ask_us, 0.50)) +
            ", \"p90\": " + json_number(percentile(cold_ask_us, 0.90)) +
            ", \"p99\": " + json_number(percentile(cold_ask_us, 0.99)) +
            "},\n    \"warm_ask_us\": {\"p50\": " + json_number(percentile(warm_ask_us, 0.50)) +
            ", \"p90\": " + json_number(percentile(warm_ask_us, 0.90)) +
            ", \"p99\": " + json_number(percentile(warm_ask_us, 0.99)) + "}},\n";
  report += std::string("  \"failover\": {\"drill\": ") +
            (failover ? "true" : "false") +
            ", \"blackout_ms\": " + json_number(blackout_ms) +
            ", \"promotions\": " + std::to_string(promotions) + "},\n";
  {
    // Fairness headline: ratio of the best-served to worst-served tenant's
    // evaluation throughput (1.0 = perfectly fair; meaningful only in the
    // open loop, where quotas + DRR admission arbitrate overload).
    double min_tput = 0.0, max_tput = 0.0;
    std::string tenants_json;
    for (std::size_t t = 0; t < by_tenant.size(); ++t) {
      WorkerStats& bucket = by_tenant[t];
      const double tput =
          wall_seconds > 0.0
              ? static_cast<double>(bucket.evaluations) / wall_seconds
              : 0.0;
      if (t == 0 || tput < min_tput) min_tput = tput;
      if (t == 0 || tput > max_tput) max_tput = tput;
      tenants_json += "      {\"tenant\": \"tenant-" + std::to_string(t) +
                      "\", \"offered\": " + std::to_string(bucket.offered) +
                      ", \"sessions\": " + std::to_string(bucket.sessions) +
                      ", \"pushbacks\": " + std::to_string(bucket.pushbacks) +
                      ", \"sheds\": " + std::to_string(bucket.sheds) +
                      ", \"throughput_evals_per_sec\": " + json_number(tput) +
                      ",\n       \"ask_us\": {\"p50\": " +
                      json_number(percentile(bucket.ask_us, 0.50)) +
                      ", \"p99\": " +
                      json_number(percentile(bucket.ask_us, 0.99)) + "}}";
      if (t + 1 < by_tenant.size()) tenants_json += ",";
      tenants_json += "\n";
    }
    report += std::string("  \"open_loop\": {\"enabled\": ") +
              (open_loop ? "true" : "false") +
              ", \"arrival_rate_per_sec\": " + json_number(arrival_rate) +
              ",\n    \"offered_sessions\": " + std::to_string(merged.offered) +
              ", \"completed_sessions\": " + std::to_string(merged.sessions) +
              ", \"pushbacks\": " + std::to_string(merged.pushbacks) +
              ", \"sheds\": " + std::to_string(merged.sheds) +
              ",\n    \"shed_rate\": " +
              json_number(merged.offered > 0
                              ? 100.0 * static_cast<double>(merged.sheds) /
                                    static_cast<double>(merged.offered)
                              : 0.0) +
              ", \"fairness_max_min_ratio\": " +
              json_number(min_tput > 0.0 ? max_tput / min_tput : 0.0) +
              ",\n    \"tenants\": [\n" + tenants_json + "    ]}\n";
  }
  report += "}\n";

  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::cerr << "loadgen: cannot open " << out_path << "\n";
    return 1;
  }
  out << report;
  out.close();
  std::cerr << "loadgen: " << merged.evaluations << " evaluations over "
            << json_number(wall_seconds) << "s, " << merged.errors
            << " errors; wrote " << out_path << "\n";

  router.stop();
  if (primary != nullptr) primary->stop();
  standby.stop();
  return merged.errors == 0 && split_errors == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return repro::run_cli(argc, argv, run, 2); }
