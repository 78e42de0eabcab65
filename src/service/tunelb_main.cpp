// `tunelb` — session-affine front router for a sharded `tuned` cluster.
// Speaks the same JSON-lines protocol as `tuned`; places new sessions on
// shards by consistent hashing, forwards session ops by their
// "<shard>:<sid>" id prefix, health-probes shards, and fails a dead
// primary over to its hot standby. See docs/SERVICE.md ("Cluster").
//
// Shard syntax (--shards, comma-separated): "<primary>" or
// "<primary>/<standby>", each endpoint "host:port" or a bare loopback
// port. Example: --shards 7001/7101,7002/7102,7003

#include <atomic>
#include <csignal>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "common/log.hpp"
#include "service/router.hpp"

namespace {

std::atomic<int> g_signal{0};

void handle_signal(int signo) { g_signal.store(signo, std::memory_order_relaxed); }

bool parse_spares(const std::string& text,
                  std::vector<repro::service::SpareEndpoint>* spares) {
  for (const std::string& item : repro::split_list(text)) {
    repro::service::SpareEndpoint spare;
    if (!repro::service::parse_endpoint(item, &spare.host, &spare.port)) return false;
    spares->push_back(spare);
  }
  return true;
}

bool parse_shards(const std::string& text,
                  std::vector<repro::service::ShardEndpoints>* shards) {
  for (const std::string& item : repro::split_list(text)) {
    repro::service::ShardEndpoints endpoints;
    const std::size_t slash = item.find('/');
    if (!repro::service::parse_endpoint(item.substr(0, slash), &endpoints.primary_host,
                                        &endpoints.primary_port))
      return false;
    if (slash != std::string::npos &&
        !repro::service::parse_endpoint(item.substr(slash + 1), &endpoints.standby_host,
                                        &endpoints.standby_port))
      return false;
    shards->push_back(endpoints);
  }
  return !shards->empty();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace repro;
  CliParser cli("tunelb",
                "Front router for a sharded tuned cluster (JSON-lines over "
                "TCP loopback)");
  cli.add_option("port", "listen port (0 = ephemeral, printed on startup)", "0");
  cli.add_option("shards",
                 "comma-separated shard list: '<primary>[/<standby>]', each "
                 "'host:port' or a bare loopback port",
                 "");
  cli.add_option("spares",
                 "comma-separated warm-spare standby endpoints the prober "
                 "may attach to a shard whose standby was consumed by a "
                 "failover ('host:port' or a bare loopback port each)",
                 "");
  cli.add_option("threads", "connection worker threads", "8");
  cli.add_option("probe-interval-ms",
                 "health-probe cadence (<=0 disables the prober thread)", "500");
  cli.add_option("probe-timeout-ms", "per-probe RPC budget", "2000");
  cli.add_option("probe-failures",
                 "consecutive failed probes before a shard is down", "2");
  service::RouterConfig config;
  try {
    if (!cli.parse(argc, argv)) return 0;
    config.port = parse_port_flag("port", cli.get("port"));
    config.connection_threads = static_cast<std::size_t>(cli.get_int("threads"));
    const long long probe_interval = cli.get_int("probe-interval-ms");
    config.probe_interval =
        std::chrono::milliseconds(probe_interval > 0 ? probe_interval : 0);
    config.probe_timeout = std::chrono::milliseconds(cli.get_int("probe-timeout-ms"));
    config.probe_failures_before_down =
        static_cast<std::size_t>(cli.get_int("probe-failures"));
  } catch (const std::invalid_argument& error) {
    log_error("tunelb: {}", error.what());
    return 2;
  }
  if (!parse_shards(cli.get("shards"), &config.shards)) {
    log_error("tunelb: --shards is required, e.g. --shards 7001/7101,7002");
    return 2;
  }
  if (!parse_spares(cli.get("spares"), &config.spares)) {
    log_error("tunelb: malformed --spares, e.g. --spares 7201,7202");
    return 2;
  }

  std::signal(SIGPIPE, SIG_IGN);

  service::Router router(config);
  try {
    router.start();
  } catch (const std::exception& error) {
    log_error("tunelb: {}", error.what());
    return 1;
  }
  // Machine-readable port line so wrappers can scrape an ephemeral port.
  std::printf("tunelb: ready port=%u\n", static_cast<unsigned>(router.port()));
  std::fflush(stdout);

  std::signal(SIGTERM, handle_signal);
  std::signal(SIGINT, handle_signal);
  while (g_signal.load(std::memory_order_relaxed) == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

  log_info("tunelb: received signal {}, stopping",
           g_signal.load(std::memory_order_relaxed));
  router.stop();
  return 0;
}
