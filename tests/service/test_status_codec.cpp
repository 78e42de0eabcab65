// The counter codec of the service wire (service/status_codec.hpp): every
// field-table row is bound to its own member, survives an encode/decode
// round trip, and merges by its rule: counters sum, flags OR, tenant rows
// merge by name, per-daemon rows keep the first report's value.
//
// The reports below number their fields 1, 2, 3, ... in wire order, so a
// row bound to the wrong member shows up as a number out of sequence in
// the pinned frame.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "service/protocol.hpp"
#include "service/session_manager.hpp"
#include "service/status_codec.hpp"
#include "store/results_store.hpp"

namespace repro::service {
namespace {

StatusReport numbered_status() {
  StatusReport r;
  r.server = "tuned/7";
  r.version = 1;
  r.live_sessions = 2;
  r.opened = 3;
  r.closed = 4;
  r.evicted = 5;
  r.finished = 6;
  r.asks = 7;
  r.tells = 8;
  r.duplicate_tells = 9;
  r.tallies.ok = 10;
  r.tallies.invalid = 11;
  r.tallies.transient = 12;
  r.tallies.timeout = 13;
  r.tallies.crashed = 14;
  r.tallies.retries = 15;
  r.tallies.retry_successes = 16;
  r.tallies.backoff_us = 16.5;
  r.wal_enabled = true;
  r.wal_errors = 17;
  r.recovery.sessions_recovered = 18;
  r.recovery.tells_replayed = 19;
  r.recovery.sessions_failed = 20;
  r.recovery.torn_tails = 21;
  r.recovery.closed_discarded = 22;
  r.recovery.evicted_tombstones = 23;
  r.store_enabled = true;
  r.store_records = 24;
  r.store_tenants = 25;
  r.store_errors = 26;
  r.store_io_errors = 27;
  r.ship_enabled = true;
  r.ship_state = ShipState::kHot;
  r.ship_connected = true;
  r.ship_fenced = true;
  r.ship_target = "127.0.0.1:7101";
  r.ship.records_shipped = 28;
  r.ship.duplicates_acked = 29;
  r.ship.resyncs = 30;
  r.ship.reconnects = 31;
  r.ship.failures = 32;
  r.ship.retargets = 33;
  r.ship.store_rows_resynced = 34;
  r.quotas.enabled = true;
  r.quotas.queue_depth = 35;
  r.quotas.queued = 36;
  r.quotas.granted = 37;
  r.quotas.timeouts = 38;
  r.quotas.shed_anonymous = 39;
  r.quotas.shed_over_quota = 40;
  r.quotas.shed_queue_full = 41;
  r.quotas.tell_pushbacks = 42;
  r.quotas.tenants = {{"acme", 43, 44, 45}};
  r.role = "standby";
  r.promotions = 46;
  r.demotions = 47;
  r.draining = true;
  r.active_connections = 48;
  r.connections_accepted = 49;
  r.connections_reaped = 50;
  r.connections_refused = 51;
  r.sessions = {{"s1", "bogp", 52, 53, 54, true, 55}};
  return r;
}

const std::string kNumberedStatus =
    R"({"server":"tuned/7","version":1,"live_sessions":2,"opened":3,"closed":4,"evicted":5,)"
    R"("finished":6,"asks":7,"tells":8,"duplicate_tells":9,"tallies":{"ok":10,"invalid":11,)"
    R"("transient":12,"timeout":13,"crashed":14,"retries":15,"retry_successes":16,)"
    R"("backoff_us":16.5},"wal_enabled":true,"wal_errors":17,"recovery":)"
    R"({"sessions_recovered":18,"tells_replayed":19,"sessions_failed":20,"torn_tails":21,)"
    R"("closed_discarded":22,"evicted_tombstones":23},"store_enabled":true,"store":)"
    R"({"records":24,"tenants":25,"append_errors":26,"io_errors":27},"ship_enabled":true,)"
    R"("ship_state":"hot","ship_connected":true,"ship_fenced":true,)"
    R"("ship_target":"127.0.0.1:7101","ship":{"records_shipped":28,"duplicates_acked":29,)"
    R"("resyncs":30,"reconnects":31,"failures":32,"retargets":33,"store_rows_resynced":34},)"
    R"("quotas":{"enabled":true,"queue_depth":35,"queued":36,"granted":37,"timeouts":38,)"
    R"("shed_anonymous":39,"shed_over_quota":40,"shed_queue_full":41,"tell_pushbacks":42,)"
    R"("tenants":[{"tenant":"acme","sessions":43,"inflight_tells":44,"queued":45}]},)"
    R"("role":"standby","promotions":46,"demotions":47,"draining":true,)"
    R"("active_connections":48,"connections_accepted":49,"connections_reaped":50,)"
    R"("connections_refused":51,"sessions":[{"id":"s1","algorithm":"bogp","budget":52,)"
    R"("asks":53,"tells":54,"finished":true,"idle_ms":55}]})";

store::StoreStats numbered_store_stats() {
  store::StoreStats s;
  s.enabled = true;
  s.dir = "/var/lib/s0/store";
  s.records = 1;
  s.tenants = 2;
  s.appends = 3;
  s.duplicates = 4;
  s.rejected = 5;
  s.evictions = 6;
  s.compactions = 7;
  s.io_errors = 8;
  s.log_records = 9;
  s.log_bytes = 10;
  s.loaded_records = 11;
  s.torn_tail = true;
  s.digest = 12;
  return s;
}

const std::string kNumberedStoreStats =
    R"({"store_enabled":true,"dir":"/var/lib/s0/store","records":1,"tenants":2,"appends":3,)"
    R"("duplicates":4,"rejected":5,"evictions":6,"compactions":7,"io_errors":8,)"
    R"("log_records":9,"log_bytes":10,"loaded_records":11,"torn_tail":true,"digest":12})";

template <class Report>
Json encoded(const Report& report) {
  Json out = Json::object();
  encode_report(report, out);
  return out;
}

template <class Report>
Json rolled_up(const Report& report) {
  Json out = Json::object();
  encode_rollup(report, out);
  return out;
}

TEST(StatusCodec, EveryStatusRowCarriesItsOwnMemberAndRoundTrips) {
  const StatusReport report = numbered_status();
  EXPECT_EQ(encoded(report).dump(), kNumberedStatus);
  const StatusReport decoded = decode_report<StatusReport>(Json::parse(kNumberedStatus));
  EXPECT_EQ(encoded(decoded).dump(), kNumberedStatus);
  EXPECT_EQ(decoded.ship_state, ShipState::kHot);
  EXPECT_EQ(decoded.ship_target, "127.0.0.1:7101");
  EXPECT_EQ(decoded.sessions.at(0).idle_ms, 55u);
}

TEST(StatusCodec, EveryStoreStatsRowCarriesItsOwnMemberAndRoundTrips) {
  EXPECT_EQ(encoded(numbered_store_stats()).dump(), kNumberedStoreStats);
  const auto decoded = decode_report<store::StoreStats>(Json::parse(kNumberedStoreStats));
  EXPECT_EQ(encoded(decoded).dump(), kNumberedStoreStats);
}

TEST(StatusCodec, GatedRowsFollowTheirFlags) {
  StatusReport report = numbered_status();
  report.wal_enabled = false;
  report.store_enabled = false;
  report.ship_enabled = false;
  const Json frame = encoded(report);
  for (const char* key : {"wal_errors", "recovery", "store", "ship_connected", "ship_fenced",
                          "ship_target", "ship"}) {
    EXPECT_EQ(frame.find(key), nullptr) << key;
  }
  report.ship_enabled = true;
  report.ship_target.reset();
  EXPECT_EQ(encoded(report).find("ship_target"), nullptr) << "no follower, no target";
  EXPECT_NE(encoded(report).find("ship"), nullptr);
  EXPECT_EQ(encoded(store::StoreStats{}).dump(), R"({"store_enabled":false})");
}

TEST(StatusCodec, MissingKeysReadZeroUnlessStrict) {
  const StatusReport status = decode_report<StatusReport>(Json::parse(R"({"tells":5})"));
  EXPECT_EQ(status.tells, 5u);
  EXPECT_EQ(status.opened, 0u);
  EXPECT_FALSE(status.ship_target.has_value());
  EXPECT_EQ(status.ship_state, ShipState::kDisabled);
  // A mistyped key reads as missing, too: the router must not trust a shard.
  EXPECT_EQ(decode_report<StatusReport>(Json::parse(R"({"tells":"5"})")).tells, 0u);
  EXPECT_EQ(decode_report<StatusReport>(Json::parse("[]")).tells, 0u);

  // A result's counters decode strictly.
  Json counters = encoded(tuner::FailureCounters{});
  EXPECT_EQ(decode_report<tuner::FailureCounters>(counters, Decode::kStrict).ok, 0u);
  counters.as_object().erase(counters.as_object().begin());
  try {
    (void)decode_report<tuner::FailureCounters>(counters, Decode::kStrict);
    ADD_FAILURE() << "a result without its ok counter decoded";
  } catch (const ProtocolError& error) {
    EXPECT_EQ(error.code, ErrorCode::kBadRequest);
    EXPECT_STREQ(error.what(), "missing field: ok");
  }
  counters.set("ok", "many");
  EXPECT_THROW((void)decode_report<tuner::FailureCounters>(counters, Decode::kStrict),
               ProtocolError);
}

TEST(StatusCodec, MergingAReportWithItselfDoublesSumsAndKeepsTheRest) {
  const StatusReport report = numbered_status();
  StatusReport twice = report;
  merge_report(twice, report);
  const Json once_frame = encoded(report);
  const Json twice_frame = encoded(twice);
  for (const char* key : {"live_sessions", "opened", "closed", "evicted", "finished", "asks",
                          "tells", "duplicate_tells"}) {
    EXPECT_EQ(twice_frame.find(key)->as_uint64(), 2 * once_frame.find(key)->as_uint64())
        << key;
  }
  const Json& quotas = *twice_frame.find("quotas");
  const Json& once_quotas = *once_frame.find("quotas");
  EXPECT_TRUE(quotas.find("enabled")->as_bool());
  for (const char* key : {"queue_depth", "queued", "granted", "timeouts", "shed_anonymous",
                          "shed_over_quota", "shed_queue_full", "tell_pushbacks"}) {
    EXPECT_EQ(quotas.find(key)->as_uint64(), 2 * once_quotas.find(key)->as_uint64()) << key;
  }
  EXPECT_EQ(quotas.find("tenants")->dump(),
            R"([{"tenant":"acme","sessions":86,"inflight_tells":88,"queued":90}])");
  for (const char* key :
       {"server", "version", "tallies", "wal_enabled", "wal_errors", "recovery",
        "store_enabled", "store", "ship_enabled", "ship_state", "ship_connected", "ship_fenced",
        "ship_target", "ship", "role", "promotions", "demotions", "draining",
        "active_connections", "connections_accepted", "connections_reaped",
        "connections_refused", "sessions"}) {
    EXPECT_EQ(twice_frame.find(key)->dump(), once_frame.find(key)->dump()) << key;
  }
}

TEST(StatusCodec, MergingIntoAFreshReportOrsFlagsAndKeepsItsOwnDaemonRows) {
  const StatusReport report = numbered_status();
  StatusReport cluster;
  merge_report(cluster, report);
  EXPECT_EQ(cluster.tells, report.tells);
  EXPECT_TRUE(cluster.quotas.enabled);
  EXPECT_EQ(cluster.quotas.tenants.size(), 1u);
  // Per-daemon rows belong to the report merged into, not to the shards.
  EXPECT_FALSE(cluster.wal_enabled);
  EXPECT_FALSE(cluster.draining);
  EXPECT_EQ(cluster.promotions, 0u);
  EXPECT_EQ(cluster.tallies.ok, 0u);
  EXPECT_TRUE(cluster.sessions.empty());
  EXPECT_EQ(rolled_up(cluster).dump(), rolled_up(report).dump());
  // The roll-up is the session counters and the quota block.
  EXPECT_EQ(rolled_up(report).dump(),
            R"({"live_sessions":2,"opened":3,"closed":4,"evicted":5,"finished":6,"asks":7,)"
            R"("tells":8,"duplicate_tells":9,"quotas":{"enabled":true,"queue_depth":35,)"
            R"("queued":36,"granted":37,"timeouts":38,"shed_anonymous":39,)"
            R"("shed_over_quota":40,"shed_queue_full":41,"tell_pushbacks":42,)"
            R"("tenants":[{"tenant":"acme","sessions":43,"inflight_tells":44,"queued":45}]}})");
}

TEST(StatusCodec, TenantRowsMergeByNameInSortedOrder) {
  StatusReport a;
  a.quotas.tenants = {{"acme", 1, 0, 0}, {"zeta", 2, 1, 0}};
  StatusReport b;
  b.quotas.tenants = {{"beta", 4, 0, 1}, {"acme", 8, 2, 0}};
  merge_report(a, b);
  ASSERT_EQ(a.quotas.tenants.size(), 3u);
  EXPECT_EQ(a.quotas.tenants[0].tenant, "acme");
  EXPECT_EQ(a.quotas.tenants[0].sessions, 9u);
  EXPECT_EQ(a.quotas.tenants[0].inflight_tells, 2u);
  EXPECT_EQ(a.quotas.tenants[1].tenant, "beta");
  EXPECT_EQ(a.quotas.tenants[1].queued, 1u);
  EXPECT_EQ(a.quotas.tenants[2].tenant, "zeta");
  EXPECT_EQ(a.quotas.tenants[2].sessions, 2u);
}

TEST(StatusCodec, StoreStatsMergeSumsCountersOrsTheFlagAndKeepsDaemonRows) {
  const store::StoreStats stats = numbered_store_stats();
  store::StoreStats twice = stats;
  merge_report(twice, stats);
  EXPECT_EQ(encoded(twice).dump(),
            R"({"store_enabled":true,"dir":"/var/lib/s0/store","records":2,"tenants":4,)"
            R"("appends":6,"duplicates":8,"rejected":10,"evictions":12,"compactions":14,)"
            R"("io_errors":16,"log_records":18,"log_bytes":20,"loaded_records":22,)"
            R"("torn_tail":true,"digest":12})");
  store::StoreStats cluster;
  merge_report(cluster, stats);
  EXPECT_TRUE(cluster.enabled);
  EXPECT_TRUE(cluster.dir.empty());
  EXPECT_EQ(cluster.digest, 0u);
  EXPECT_EQ(rolled_up(cluster).dump(),
            R"({"store_enabled":true,"records":1,"tenants":2,"appends":3,"duplicates":4,)"
            R"("rejected":5,"evictions":6,"compactions":7,"io_errors":8,"log_records":9,)"
            R"("log_bytes":10,"loaded_records":11})");
}

}  // namespace
}  // namespace repro::service
