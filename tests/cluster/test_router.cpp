// In-process router tests: placement hashing, session-id namespacing,
// end-to-end session ops through `tunelb`'s Router over live TuneServers,
// aggregated status, role gating, and client-side endpoint failover.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

#include "service/router.hpp"
#include "service/server.hpp"
#include "tests/cluster/cluster_test_util.hpp"
#include "tuner/registry.hpp"

namespace repro::service {
namespace {

using cluster_test::fresh_dir;
using cluster_test::resilient_config;
using cluster_test::same_result;
using cluster_test::tiny_open;
using service_test::synth_eval;

TEST(RouterUnit, Fnv1a64MatchesKnownVectors) {
  EXPECT_EQ(fnv1a64(""), 14695981039346656037ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a64("abc"), fnv1a64("abc"));
  EXPECT_NE(fnv1a64("abc"), fnv1a64("abd"));
}

TEST(RouterUnit, SplitSessionIdParsesAndRejects) {
  const auto ok = split_session_id("1:s42", 4);
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->first, 1u);
  EXPECT_EQ(ok->second, "s42");
  EXPECT_FALSE(split_session_id("s42", 4).has_value());     // no prefix
  EXPECT_FALSE(split_session_id(":s42", 4).has_value());    // empty shard
  EXPECT_FALSE(split_session_id("9:s42", 4).has_value());   // out of range
  EXPECT_FALSE(split_session_id("x:s42", 4).has_value());   // non-numeric
  EXPECT_FALSE(split_session_id("1:", 4).has_value());      // empty sid
}

/// Two plain shards behind a router.
struct TwoShardCluster {
  TuneServer shard0;
  TuneServer shard1;
  std::unique_ptr<Router> router;

  TwoShardCluster() {
    shard0.start();
    shard1.start();
    RouterConfig config;
    config.shards = {{"127.0.0.1", shard0.port(), "127.0.0.1", 0},
                     {"127.0.0.1", shard1.port(), "127.0.0.1", 0}};
    config.probe_interval = std::chrono::milliseconds(0);  // probe_now() only
    config.probe_timeout = std::chrono::milliseconds(500);
    router = std::make_unique<Router>(config);
    router->start();
  }
};

TEST(Router, SessionLifecycleThroughRouterMatchesDirectShard) {
  TwoShardCluster cluster;
  const OpenParams params = tiny_open("rs", 12, 7);
  const tuner::ParamSpace space = params.make_space();

  // Baseline: the same session driven directly against a shard.
  Client direct(resilient_config(cluster.shard0.port()));
  const Client::RemoteResult baseline = direct.remote_minimize(
      params, [&space](const tuner::Configuration& c) { return synth_eval(space, c, 5); });

  Client client(resilient_config(cluster.router->port()));
  const std::string id = client.open(params, "lifecycle#1");
  EXPECT_NE(id.find(':'), std::string::npos) << "session id must be namespaced";
  while (const auto config = client.ask(id)) {
    (void)client.tell(id, synth_eval(space, *config, 5));
  }
  const Client::RemoteResult routed = client.result(id);
  client.close_session(id);
  EXPECT_TRUE(same_result(baseline.result, routed.result))
      << "a routed session diverged from a direct one";
}

TEST(Router, TokenAffinityReturnsTheSameSession) {
  TwoShardCluster cluster;
  Client client(resilient_config(cluster.router->port()));
  const OpenParams params = tiny_open("rs", 8, 3);
  const std::string first = client.open(params, "affinity#1");
  const std::string second = client.open(params, "affinity#1");
  EXPECT_EQ(first, second);
  client.close_session(first);
}

TEST(Router, AnonymousPlacementSpreadsAcrossShards) {
  TwoShardCluster cluster;
  Client client(resilient_config(cluster.router->port()));
  std::set<std::size_t> used;
  std::vector<std::string> ids;
  for (int i = 0; i < 16; ++i) {
    const std::string id = client.open(tiny_open("rs", 8, 100 + i));
    const auto split = split_session_id(id, 2);
    ASSERT_TRUE(split.has_value());
    used.insert(split->first);
    ids.push_back(id);
  }
  EXPECT_EQ(used.size(), 2u) << "16 anonymous opens never reached one shard";
  for (const std::string& id : ids) client.close_session(id);
}

TEST(Router, AggregatedStatusSumsShardsAndReportsHealth) {
  TwoShardCluster cluster;
  Client client(resilient_config(cluster.router->port()));
  std::vector<std::string> ids;
  for (int i = 0; i < 6; ++i)
    ids.push_back(client.open(tiny_open("rs", 8, 200 + i)));
  const Json status = client.status();
  EXPECT_EQ(status.find("role")->as_string(), "router");
  EXPECT_EQ(status.find("live_sessions")->as_uint64(), 6u);
  const Json* shards = status.find("shards");
  ASSERT_NE(shards, nullptr);
  const auto& shard_entries = shards->as_array();
  ASSERT_EQ(shard_entries.size(), 2u);
  std::uint64_t placed = 0;
  for (const Json& entry : shard_entries) {
    EXPECT_EQ(entry.find("health")->as_string(), "up");
    placed += entry.find("sessions_placed")->as_uint64();
    const Json* shard_status = entry.find("status");
    ASSERT_NE(shard_status, nullptr) << "per-shard status must be embedded";
    EXPECT_EQ(shard_status->find("role")->as_string(), "primary");
    // These shards run without WAL; recovery stats appear (see
    // test_failover) only when durability is on.
    ASSERT_NE(shard_status->find("wal_enabled"), nullptr);
  }
  EXPECT_EQ(placed, 6u);
  for (const std::string& id : ids) client.close_session(id);
}

TEST(Router, AggregatedStatusMergesTenantsAndSumsQuotaAndStoreCounters) {
  // Each shard holds one session of the named tenant "acme" and sheds a
  // second one over its per-tenant quota; each store holds its own rows.
  const std::string dir = fresh_dir();
  const auto shard_config = [&dir](const std::string& name) {
    ServerConfig config;
    config.store_dir = dir + "/" + name;
    config.limits.quotas.max_sessions_per_tenant = 1;
    return config;
  };
  TuneServer shard0(shard_config("s0-store"));
  TuneServer shard1(shard_config("s1-store"));
  shard0.start();
  shard1.start();
  for (TuneServer* shard : {&shard0, &shard1}) {
    ClientConfig config = service_test::client_config(shard->port());
    config.tenant = "acme";
    Client acme(config);
    (void)acme.open(tiny_open("rs", 8, 300));
    EXPECT_THROW((void)acme.open(tiny_open("rs", 8, 301)), ProtocolError);
  }
  const store::StoreKey key{"conv", "arch0", "ffffffffffffffff"};
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(shard0.store()->append(key, {i, 1}, 1.0, true));
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(shard1.store()->append(key, {i, 2}, 2.0, true));

  RouterConfig config;
  config.shards = {{"127.0.0.1", shard0.port(), "127.0.0.1", 0},
                   {"127.0.0.1", shard1.port(), "127.0.0.1", 0}};
  config.probe_interval = std::chrono::milliseconds(0);
  config.probe_timeout = std::chrono::milliseconds(500);
  Router router(config);
  router.start();
  Client client(resilient_config(router.port()));
  const Json status = client.status();
  EXPECT_EQ(status.find("live_sessions")->as_uint64(), 2u);
  const Json& quotas = *status.find("quotas");
  EXPECT_TRUE(quotas.find("enabled")->as_bool());
  EXPECT_EQ(quotas.find("shed_over_quota")->as_uint64(), 2u);
  const Json::Array& tenants = quotas.find("tenants")->as_array();
  ASSERT_EQ(tenants.size(), 1u) << "one tenant across shards is one row";
  EXPECT_EQ(tenants[0].find("tenant")->as_string(), "acme");
  EXPECT_EQ(tenants[0].find("sessions")->as_uint64(), 2u);
  EXPECT_EQ(tenants[0].find("inflight_tells")->as_uint64(), 0u);
  EXPECT_EQ(tenants[0].find("queued")->as_uint64(), 0u);

  const Json stats = client.store_stats();
  EXPECT_TRUE(stats.find("store_enabled")->as_bool());
  EXPECT_EQ(stats.find("records")->as_uint64(), 5u);
  EXPECT_EQ(stats.find("appends")->as_uint64(), 5u);
  EXPECT_EQ(stats.find("tenants")->as_uint64(), 2u);
  EXPECT_EQ(stats.find("shards")->as_array().size(), 2u);
  router.stop();

  // store_enabled is true when any shard has a store, wherever it sits.
  TuneServer storeless;
  storeless.start();
  config.shards = {{"127.0.0.1", storeless.port(), "127.0.0.1", 0},
                   {"127.0.0.1", shard0.port(), "127.0.0.1", 0}};
  Router mixed(config);
  mixed.start();
  Client mixed_client(resilient_config(mixed.port()));
  const Json mixed_stats = mixed_client.store_stats();
  EXPECT_TRUE(mixed_stats.find("store_enabled")->as_bool());
  EXPECT_EQ(mixed_stats.find("records")->as_uint64(), 2u);
  mixed.stop();
}

TEST(Router, StoreExportPagesAcrossShardsWithACompositeCursor) {
  // Store-configured shards, each holding a distinct tenant: the router's
  // "<shard>|<cursor>" paging must resume mid-shard, cross the shard
  // boundary, and stitch back to the full union.
  ServerConfig config0;
  config0.store_dir = fresh_dir() + "/s0-store";
  TuneServer shard0(config0);
  ServerConfig config1;
  config1.store_dir = fresh_dir() + "/s1-store";
  TuneServer shard1(config1);
  shard0.start();
  shard1.start();
  RouterConfig config;
  config.shards = {{"127.0.0.1", shard0.port(), "127.0.0.1", 0},
                   {"127.0.0.1", shard1.port(), "127.0.0.1", 0}};
  config.probe_interval = std::chrono::milliseconds(0);
  config.probe_timeout = std::chrono::milliseconds(500);
  Router router(config);
  router.start();

  const store::StoreKey key0{"conv", "arch0", "ffffffffffffffff"};
  const store::StoreKey key1{"conv", "arch1", "ffffffffffffffff"};
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(shard0.store()->append(key0, {i, 1}, 10.0 + i, true));
    ASSERT_TRUE(shard1.store()->append(key1, {i, 2}, 20.0 + i, true));
  }

  Client client(resilient_config(router.port()));
  // Full export loops the cursor chain transparently: both tenants, all rows.
  const std::vector<store::TenantSnapshot> all = client.store_export();
  std::size_t rows = 0;
  for (const store::TenantSnapshot& tenant : all) rows += tenant.rows.size();
  EXPECT_EQ(all.size(), 2u);
  EXPECT_EQ(rows, 10u);

  // Tiny explicit pages: a budget of 3 rows forces a mid-shard resume and a
  // page that spans the shard0 -> shard1 boundary.
  std::size_t paged = 0;
  int pages = 0;
  std::string cursor;
  while (true) {
    const Client::ExportPage page = client.store_export_page("", "", 3, cursor);
    ++pages;
    for (const store::TenantSnapshot& tenant : page.tenants)
      paged += tenant.rows.size();
    if (page.next_cursor.empty()) {
      EXPECT_FALSE(page.truncated);
      break;
    }
    EXPECT_NE(page.next_cursor.find('|'), std::string::npos)
        << "router cursors must be composite";
    cursor = page.next_cursor;
  }
  EXPECT_EQ(paged, rows);
  EXPECT_GE(pages, 4);

  // A shard prefix past 2^64 must not wrap around to a valid shard index.
  for (const char* bad : {"18446744073709551616|", "2|", "|", "-1|", "x|"}) {
    try {
      (void)client.store_export_page("", "", 0, bad);
      ADD_FAILURE() << "malformed cursor '" << bad << "' was accepted";
    } catch (const ProtocolError& error) {
      EXPECT_EQ(error.code, ErrorCode::kBadRequest) << bad;
    }
  }
  // tunelb forwards a limit of 0 and hands back the shard's refusal.
  Json zero = Json::object();
  zero.set("op", "store_export");
  zero.set("limit", std::uint64_t{0});
  try {
    (void)client.call(zero);
    ADD_FAILURE() << "store_export with limit 0 was accepted";
  } catch (const ProtocolError& error) {
    EXPECT_EQ(error.code, ErrorCode::kBadRequest);
  }

  // Re-importing the paged union into one shard dedups to the same rows.
  EXPECT_EQ(shard0.store()->import_tenants(all), 5u);
  router.stop();
}

TEST(Router, ShipOpsAndPromoteAreWrongRole) {
  TwoShardCluster cluster;
  Client client(resilient_config(cluster.router->port()));
  client.connect();
  Json request = Json::object();
  request.set("op", "ship_evict");
  request.set("session", "s1");
  try {
    (void)client.call(request);
    FAIL() << "ship_evict through the router must be refused";
  } catch (const ProtocolError& error) {
    EXPECT_EQ(error.code, ErrorCode::kWrongRole);
  }
}

TEST(Router, AllShardsDownAnswersRetryLater) {
  RouterConfig config;
  // Ports 1 and 2: reserved, nothing listens there.
  config.shards = {{"127.0.0.1", 1, "127.0.0.1", 0},
                   {"127.0.0.1", 2, "127.0.0.1", 0}};
  config.probe_interval = std::chrono::milliseconds(0);
  config.probe_timeout = std::chrono::milliseconds(200);
  Router router(config);
  router.start();
  ClientConfig client_config = resilient_config(router.port());
  client_config.max_retries = 0;  // surface the pushback, don't wait it out
  Client client(client_config);
  try {
    (void)client.open(tiny_open("rs", 8, 1), "downtest#1");
    FAIL() << "placement with every shard down must push back";
  } catch (const ProtocolError& error) {
    EXPECT_EQ(error.code, ErrorCode::kRetryLater);
    EXPECT_GT(error.retry_after_ms, 0u);
  }
  const std::vector<ShardSnapshot> shards = router.shards();
  EXPECT_EQ(shards[0].health, ShardHealth::kDown);
}

TEST(Router, ClientEndpointListFailsOverDeterministically) {
  TuneServer server_a;
  TuneServer server_b;
  server_a.start();
  server_b.start();
  ClientConfig config;
  config.name = "endpoints";
  config.max_retries = 10;
  config.backoff_initial_ms = 10;
  config.backoff_max_ms = 100;
  // First entry dead: the walk must deterministically settle on the third.
  config.endpoints = {{"127.0.0.1", 1},
                      {"127.0.0.1", server_a.port()},
                      {"127.0.0.1", server_b.port()}};
  Client client(config);
  client.connect();
  EXPECT_EQ(client.endpoint_index(), 1u);
  client.ping();
  // The preferred endpoint dies: the next reconnect walks the list again
  // (same order) and lands on the next live one.
  server_a.stop();
  client.disconnect();
  client.ping();
  EXPECT_EQ(client.endpoint_index(), 2u);
}

}  // namespace
}  // namespace repro::service
