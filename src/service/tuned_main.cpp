// `tuned` — the tuning-as-a-service daemon. Binds a loopback JSON-lines
// endpoint, serves concurrent ask/tell sessions, and drains gracefully on
// SIGTERM/SIGINT (stop accepting, let live sessions finish up to
// --drain-timeout-ms, then hard-stop). See docs/SERVICE.md for the protocol.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/cli.hpp"
#include "common/log.hpp"
#include "service/server.hpp"

namespace {

std::atomic<int> g_signal{0};

void handle_signal(int signo) { g_signal.store(signo, std::memory_order_relaxed); }

}  // namespace

int main(int argc, char** argv) {
  using namespace repro;
  CliParser cli("tuned", "Tuning-as-a-service daemon (JSON-lines over TCP loopback)");
  cli.add_option("port", "listen port (0 = ephemeral, printed on startup)", "0");
  cli.add_option("threads", "connection worker threads", "8");
  cli.add_option("max-sessions", "maximum concurrent sessions", "256");
  cli.add_option("idle-timeout-ms", "evict sessions idle longer than this (<=0 disables)",
                 "300000");
  cli.add_option("drain-timeout-ms", "graceful drain budget on SIGTERM/SIGINT", "10000");
  cli.add_option("status-interval-ms", "periodic status log interval (<=0 disables)", "0");
  cli.add_option("state-dir",
                 "session WAL directory: journal every session and recover "
                 "live ones on restart (empty disables durability)",
                 "");
  cli.add_option("max-connections",
                 "refuse accepts beyond this many open connections with "
                 "retry_later (0 = unlimited)",
                 "0");
  cli.add_option("conn-idle-timeout-ms",
                 "reap connections that complete no request frame for this "
                 "long (slow-loris guard; <=0 disables)",
                 "0");
  cli.add_flag("standby",
               "start as a hot standby: refuse session ops with wrong_role "
               "and apply ship_* records from a primary until promoted");
  cli.add_flag("no-auto-rejoin",
               "when this primary loses a failover race (its follower was "
               "promoted and fences it), keep serving standalone instead of "
               "demoting into a standby of the new primary");
  cli.add_option("tenant-max-sessions",
                 "per-tenant concurrent-session quota (0 = unlimited)", "0");
  cli.add_option("tenant-max-inflight-tells",
                 "per-tenant concurrent in-flight tell quota (0 = unlimited)",
                 "0");
  cli.add_option("admission-queue-cap",
                 "bounded admission queue for named tenants at the session "
                 "cap (0 = shed immediately with retry_later)",
                 "0");
  cli.add_option("admission-wait-ms",
                 "longest an open may wait in the admission queue before "
                 "retry_later (0 disables queueing)",
                 "0");
  cli.add_option("ship-to",
                 "replicate this primary's WAL to a standby at this port "
                 "(host:port or bare port; 0 disables; requires --state-dir)",
                 "0");
  cli.add_option("ship-timeout-ms", "per-record replication RPC budget", "5000");
  cli.add_option("store-dir",
                 "persistent cross-tenant results store directory: record "
                 "every acknowledged tell of tenant-identified sessions and "
                 "serve warm-start priors (empty disables the store)",
                 "");
  cli.add_option("store-capacity",
                 "results-store live-record cap (oldest records evicted "
                 "past it)",
                 "1048576");
  service::ServerConfig config;
  std::chrono::milliseconds drain_budget{0};
  long long status_interval = 0;
  try {
    if (!cli.parse(argc, argv)) return 0;
    config.port = parse_port_flag("port", cli.get("port"));
    config.connection_threads = static_cast<std::size_t>(cli.get_int("threads"));
    config.limits.max_sessions = static_cast<std::size_t>(cli.get_int("max-sessions"));
    config.limits.idle_timeout = std::chrono::milliseconds(cli.get_int("idle-timeout-ms"));
    config.limits.state_dir = cli.get("state-dir");
    config.max_connections = static_cast<std::size_t>(cli.get_int("max-connections"));
    config.standby = cli.get_flag("standby");
    // Self-healing default for operator-run daemons: a deposed primary
    // demotes and rejoins its shard on its own (in-process embedders keep
    // the conservative ServerConfig default of off).
    config.auto_rejoin = !cli.get_flag("no-auto-rejoin");
    config.limits.quotas.max_sessions_per_tenant =
        static_cast<std::size_t>(cli.get_int("tenant-max-sessions"));
    config.limits.quotas.max_inflight_tells_per_tenant =
        static_cast<std::size_t>(cli.get_int("tenant-max-inflight-tells"));
    config.limits.quotas.admission_queue_cap =
        static_cast<std::size_t>(cli.get_int("admission-queue-cap"));
    const long long admission_wait = cli.get_int("admission-wait-ms");
    config.limits.quotas.admission_wait =
        std::chrono::milliseconds(admission_wait > 0 ? admission_wait : 0);
    config.store_dir = cli.get("store-dir");
    config.store_capacity = static_cast<std::size_t>(cli.get_int("store-capacity"));
    config.limits.ship.rpc_timeout = std::chrono::milliseconds(cli.get_int("ship-timeout-ms"));
    const long long conn_idle = cli.get_int("conn-idle-timeout-ms");
    config.connection_idle_timeout = std::chrono::milliseconds(conn_idle > 0 ? conn_idle : 0);
    drain_budget = std::chrono::milliseconds(cli.get_int("drain-timeout-ms"));
    status_interval = cli.get_int("status-interval-ms");
  } catch (const std::invalid_argument& error) {
    log_error("tuned: {}", error.what());
    return 2;
  }
  const std::string ship_to = cli.get("ship-to");
  if (ship_to != "0" && !ship_to.empty() &&
      !service::parse_endpoint(ship_to, &config.limits.ship.host, &config.limits.ship.port)) {
    log_error("tuned: --ship-to: expected host:port or a port in 1..65535, got '{}'", ship_to);
    return 2;
  }
  if (config.limits.ship.port != 0 && config.limits.state_dir.empty()) {
    log_error("tuned: --ship-to requires --state-dir (journals are the "
              "resync source)");
    return 2;
  }
  if (config.standby && config.limits.ship.port != 0) {
    log_error("tuned: --standby and --ship-to are mutually exclusive "
              "(chained replication is not supported)");
    return 2;
  }

  // A peer vanishing mid-write must surface as a send error on that
  // connection, not kill the daemon (writes also pass MSG_NOSIGNAL, but
  // belt-and-suspenders against any future plain write on a socket).
  std::signal(SIGPIPE, SIG_IGN);

  service::TuneServer server(config);
  try {
    server.start();
  } catch (const std::exception& error) {
    log_error("tuned: {}", error.what());
    return 1;
  }
  // Machine-readable port line so wrappers can scrape an ephemeral port.
  std::printf("tuned: ready port=%u\n", static_cast<unsigned>(server.port()));
  std::fflush(stdout);

  std::signal(SIGTERM, handle_signal);
  std::signal(SIGINT, handle_signal);

  // Status-heartbeat pacing; never feeds tuning results.
  auto last_status = std::chrono::steady_clock::now();  // NOLINT(reprolint-wall-clock)
  while (g_signal.load(std::memory_order_relaxed) == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    if (status_interval > 0) {
      const auto now = std::chrono::steady_clock::now();  // NOLINT(reprolint-wall-clock)
      if (now - last_status >= std::chrono::milliseconds(status_interval)) {
        last_status = now;
        const service::StatusReport report = server.sessions().status();
        log_info("tuned: status live={} opened={} closed={} evicted={} asks={} tells={} "
                 "connections={}",
                 report.live_sessions, report.opened, report.closed, report.evicted,
                 report.asks, report.tells, server.connections().active);
      }
    }
  }

  const int signo = g_signal.load(std::memory_order_relaxed);
  log_info("tuned: received signal {}, draining (budget {}ms)", signo,
           drain_budget.count());
  const bool drained = server.drain(drain_budget);
  if (!drained) {
    log_warn("tuned: drain deadline expired with {} live sessions; hard-stopping",
             server.sessions().live());
  }
  server.stop();
  log_info("tuned: shutdown complete (drained={})", drained);
  return 0;
}
