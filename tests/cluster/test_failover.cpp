// In-process hot-standby failover: WAL shipping keeps a follower's journals
// in lockstep with the primary (the follower journals, it does not
// search), promotion turns the follower into a serving primary with zero
// lost acknowledged tells, each promoted session replays its journal at its
// first touch, and the router re-routes idempotent ops across the swap. The
// headline loop runs every paper algorithm through a mid-session primary
// crash and requires a byte-identical result.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "service/router.hpp"
#include "service/server.hpp"
#include "service/session_wal.hpp"
#include "tests/cluster/cluster_test_util.hpp"
#include "tuner/registry.hpp"

namespace repro::service {
namespace {

using cluster_test::fresh_dir;
using cluster_test::resilient_config;
using cluster_test::same_result;
using cluster_test::tiny_open;
using service_test::synth_eval;

/// Primary (WAL + shipping) and standby pair over fresh state dirs.
struct ReplicatedPair {
  std::string dir = fresh_dir();
  std::unique_ptr<TuneServer> standby;
  std::unique_ptr<TuneServer> primary;

  ReplicatedPair() {
    ServerConfig standby_config;
    standby_config.standby = true;
    standby_config.limits.state_dir = dir + "/standby";
    standby = std::make_unique<TuneServer>(standby_config);
    standby->start();

    ServerConfig primary_config;
    primary_config.limits.state_dir = dir + "/primary";
    primary_config.limits.ship.port = standby->port();
    primary = std::make_unique<TuneServer>(primary_config);
    primary->start();
  }

  void crash_primary() {
    // stop() severs connections and cancels sessions; the standby has the
    // acknowledged record stream, which is all a real crash leaves behind.
    primary->stop();
    primary.reset();
  }
};

TEST(Failover, AcknowledgedTellsAreLiveOnTheStandby) {
  ReplicatedPair pair;
  const OpenParams params = tiny_open("rs", 16, 11);
  const tuner::ParamSpace space = params.make_space();
  Client client(resilient_config(pair.primary->port()));
  const std::string id = client.open(params, "live#1");
  for (int i = 0; i < 5; ++i) {
    const auto config = client.ask(id);
    ASSERT_TRUE(config.has_value());
    (void)client.tell(id, synth_eval(space, *config, 9));
  }
  // Every acknowledged tell is already journaled on the standby's session.
  const StatusReport primary_status = pair.primary->sessions().status();
  EXPECT_TRUE(primary_status.ship_enabled);
  EXPECT_TRUE(primary_status.ship_connected);
  EXPECT_FALSE(primary_status.ship_fenced);
  EXPECT_GE(primary_status.ship.records_shipped, 6u);  // open + 5 tells
  const StatusReport standby_status = pair.standby->sessions().status();
  EXPECT_EQ(standby_status.live_sessions, 1u);
  EXPECT_EQ(standby_status.tells, 5u);
}

TEST(Failover, StandbyRefusesSessionOpsUntilPromoted) {
  ReplicatedPair pair;
  Client primary_client(resilient_config(pair.primary->port()));
  const std::string id = primary_client.open(tiny_open("rs", 8, 3), "role#1");
  ClientConfig config = resilient_config(pair.standby->port());
  config.max_retries = 0;
  Client standby_client(config);
  try {
    (void)standby_client.open(tiny_open("rs", 8, 3));
    FAIL() << "a standby must refuse open";
  } catch (const ProtocolError& error) {
    EXPECT_EQ(error.code, ErrorCode::kWrongRole);
  }
  pair.standby->promote();
  EXPECT_FALSE(pair.standby->standby());
  // Promoted: the shipped session answers normal ops under its own id.
  const Json status = standby_client.status();
  EXPECT_EQ(status.find("role")->as_string(), "primary");
  EXPECT_EQ(status.find("promotions")->as_uint64(), 1u);
  EXPECT_EQ(status.find("live_sessions")->as_uint64(), 1u);
  (void)id;
}

TEST(Failover, StalePrimaryFencesItselfAfterPromotion) {
  ReplicatedPair pair;
  const OpenParams params = tiny_open("rs", 16, 21);
  const tuner::ParamSpace space = params.make_space();
  Client client(resilient_config(pair.primary->port()));
  const std::string id = client.open(params, "fence#1");
  const auto first = client.ask(id);
  ASSERT_TRUE(first.has_value());
  (void)client.tell(id, synth_eval(space, *first, 9));

  pair.standby->promote();
  // The stale primary keeps serving (availability over replication) but
  // its next ship gets wrong_role and fences the shipper permanently.
  const auto second = client.ask(id);
  ASSERT_TRUE(second.has_value());
  (void)client.tell(id, synth_eval(space, *second, 9));
  const StatusReport status = pair.primary->sessions().status();
  EXPECT_TRUE(status.ship_fenced);
  EXPECT_FALSE(status.ship_connected);
}

TEST(Failover, ShipperResyncsAfterStandbyRestartAndAcksDuplicates) {
  ReplicatedPair pair;
  const OpenParams params = tiny_open("rs", 16, 31);
  const tuner::ParamSpace space = params.make_space();
  Client client(resilient_config(pair.primary->port()));
  const std::string id = client.open(params, "resync#1");
  for (int i = 0; i < 3; ++i) {
    const auto config = client.ask(id);
    ASSERT_TRUE(config.has_value());
    (void)client.tell(id, synth_eval(space, *config, 9));
  }
  // Restart the standby over its own journals on the same port: the next
  // ship reconnects and re-ships everything; the recovered follower acks
  // the replays as duplicates.
  const std::uint16_t standby_port = pair.standby->port();
  const std::string standby_dir = pair.dir + "/standby";
  pair.standby->stop();
  pair.standby.reset();
  ServerConfig standby_config;
  standby_config.standby = true;
  standby_config.port = standby_port;
  standby_config.limits.state_dir = standby_dir;
  pair.standby = std::make_unique<TuneServer>(standby_config);
  pair.standby->start();
  EXPECT_EQ(pair.standby->sessions().status().recovery.sessions_recovered, 1u);

  for (int i = 0; i < 2; ++i) {
    const auto config = client.ask(id);
    ASSERT_TRUE(config.has_value());
    (void)client.tell(id, synth_eval(space, *config, 9));
  }
  const StatusReport status = pair.primary->sessions().status();
  EXPECT_TRUE(status.ship_connected);
  EXPECT_GE(status.ship.resyncs, 2u);  // initial connect + reconnect
  EXPECT_GE(status.ship.duplicates_acked, 3u);
  EXPECT_EQ(pair.standby->sessions().status().tells, 5u);
}

TEST(Failover, StandbyFollowsWithoutSearchingAndCatchesDivergenceAtFirstTouch) {
  const std::string dir = fresh_dir();
  ServerConfig standby_config;
  standby_config.standby = true;
  standby_config.limits.state_dir = dir + "/standby";
  TuneServer standby(standby_config);
  standby.start();

  // The config the session's search proposes first, from a plain run; the
  // shipped record carries a different, in-range one.
  const OpenParams params = tiny_open("rs", 8, 91);
  tuner::Configuration shipped;
  {
    SessionManager plain;
    const std::string id = plain.open(params);
    const std::optional<tuner::Configuration> first = plain.ask(id);
    ASSERT_TRUE(first.has_value());
    shipped = *first;
    shipped[0] = shipped[0] == 1 ? 2 : 1;
  }
  const tuner::ParamSpace space = params.make_space();
  ASSERT_TRUE(space.in_range(shipped));

  Client client(resilient_config(standby.port()));
  client.connect();
  Json open = Json::object();
  open.set("op", "ship_open");
  open.set("session", "s7");
  open.set("open", encode_open(params));
  (void)client.call(open);
  const auto ship_tell = [&](std::uint64_t seq, const tuner::Configuration& config) {
    Json tell = Json::object();
    tell.set("op", "ship_tell");
    tell.set("session", "s7");
    tell.set("seq", seq);
    tell.set("config", encode_config(config));
    encode_evaluation_into(tell, synth_eval(space, shipped, 5));
    return client.call(tell);
  };
  // The follower runs no search, so it cannot tell the record diverges: it
  // journals and acks it.
  EXPECT_TRUE(ship_tell(1, shipped).find("ok")->as_bool());
  // A config the space cannot hold is still refused at ship time.
  try {
    (void)ship_tell(2, {99, 1, 0});
    FAIL() << "an out-of-range config must be refused";
  } catch (const ProtocolError& error) {
    EXPECT_EQ(error.code, ErrorCode::kBadRequest);
  }
  const std::vector<SessionInfo> followed = standby.sessions().sessions();
  ASSERT_EQ(followed.size(), 1u);
  EXPECT_EQ(followed[0].tells, 1u);
  EXPECT_EQ(followed[0].asks, 1u);
  EXPECT_FALSE(followed[0].finished);

  // The first touch after promotion replays the journal and finds the
  // divergence: a typed error naming the seq, never a proposal.
  const std::size_t failed_before = standby.sessions().status().recovery.sessions_failed;
  standby.promote();
  try {
    (void)client.ask("s7");
    FAIL() << "a diverged journal must not yield a proposal";
  } catch (const ProtocolError& error) {
    EXPECT_EQ(error.code, ErrorCode::kInternal);
    EXPECT_NE(std::string(error.what()).find("seq 1"), std::string::npos) << error.what();
  }
  const StatusReport status = standby.sessions().status();
  EXPECT_EQ(status.recovery.sessions_failed, failed_before + 1);
  EXPECT_EQ(status.live_sessions, 0u);
  // Dropped the way startup recovery drops it: the journal stays on disk.
  EXPECT_EQ(list_session_wals(dir + "/standby").size(), 1u);
  standby.stop();
}

TEST(Failover, RouterFailoverMidSessionIsByteIdenticalForEveryAlgorithm) {
  for (const std::string& algorithm : tuner::paper_algorithms()) {
    const OpenParams params = tiny_open(algorithm, 16, 42);
    const tuner::ParamSpace space = params.make_space();

    // Uninterrupted baseline on a plain server.
    TuneServer plain;
    plain.start();
    Client clean(resilient_config(plain.port()));
    const Client::RemoteResult baseline = clean.remote_minimize(
        params,
        [&space](const tuner::Configuration& c) { return synth_eval(space, c, 13); });
    plain.stop();

    // Replicated shard behind a router; crash the primary mid-session.
    ReplicatedPair pair;
    RouterConfig router_config;
    router_config.shards = {{"127.0.0.1", pair.primary->port(), "127.0.0.1",
                             pair.standby->port()}};
    router_config.probe_interval = std::chrono::milliseconds(0);
    router_config.probe_timeout = std::chrono::milliseconds(500);
    Router router(router_config);
    router.start();

    Client client(resilient_config(router.port()));
    const std::string id = client.open(params, "failover#" + algorithm);
    for (int i = 0; i < 5; ++i) {
      const auto config = client.ask(id);
      ASSERT_TRUE(config.has_value());
      (void)client.tell(id, synth_eval(space, *config, 13));
    }
    pair.crash_primary();
    while (const auto config = client.ask(id)) {
      (void)client.tell(id, synth_eval(space, *config, 13));
    }
    const Client::RemoteResult resumed = client.result(id);
    client.close_session(id);
    EXPECT_TRUE(same_result(baseline.result, resumed.result))
        << algorithm << " diverged across a primary crash + promotion";
    const std::vector<ShardSnapshot> shards = router.shards();
    EXPECT_EQ(shards[0].promotions, 1u) << algorithm;
    EXPECT_EQ(shards[0].port, pair.standby->port()) << algorithm;
    router.stop();
  }
}

}  // namespace
}  // namespace repro::service
