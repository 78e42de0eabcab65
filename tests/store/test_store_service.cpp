// Results store wired through the daemon: acknowledged tells land in the
// store, the store_stats/store_export/store_import ops round-trip over the
// wire, a store-enabled daemon with warm start disabled stays byte-identical
// to a plain one, warm-started sessions are deterministic across daemons
// holding equal stores, and WAL recovery replays a warm session from its
// *journaled* prior while repopulating a fresh store.

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "service/server.hpp"
#include "store/fingerprint.hpp"
#include "store/results_store.hpp"
#include "tests/service/service_test_util.hpp"
#include "tuner/registry.hpp"

namespace repro::service {
namespace {

using service_test::client_config;
using service_test::synth_eval;

constexpr std::uint64_t kSalt = 55;

std::string fresh_dir() {
  char templ[] = "/tmp/repro_store_svc_XXXXXX";
  const char* dir = ::mkdtemp(templ);
  EXPECT_NE(dir, nullptr);
  return dir;
}

/// Tenant-identified open over the tiny custom space.
OpenParams tenant_open(const std::string& algorithm, std::size_t budget,
                       std::uint64_t seed, bool warm = false) {
  OpenParams params;
  params.algorithm = algorithm;
  params.budget = budget;
  params.seed = seed;
  params.custom_space = true;
  params.params = {{"a", 1, 8}, {"b", 1, 8}, {"c", 0, 5}};
  params.benchmark = "mandelbrot";
  params.arch = "rtxtitan";
  params.warm_start = warm;
  return params;
}

store::StoreKey tenant_key(const OpenParams& params) {
  return store::StoreKey{params.benchmark, params.arch, space_fingerprint_of(params)};
}

ServerConfig store_config(const std::string& dir) {
  ServerConfig config;
  config.store_dir = dir;
  return config;
}

/// Drive a full remote session; returns the result.
Client::RemoteResult run_remote(Client& client, const OpenParams& params) {
  const tuner::ParamSpace space = params.make_space();
  return client.remote_minimize(params, [&space](const tuner::Configuration& c) {
    return synth_eval(space, c, kSalt);
  });
}

bool same_result(const tuner::TuneResult& a, const tuner::TuneResult& b) {
  return a.best_config == b.best_config && a.found_valid == b.found_valid &&
         a.evaluations_used == b.evaluations_used && a.best_value == b.best_value;
}

TEST(StoreService, AcknowledgedTellsLandInTheStore) {
  TuneServer server(store_config(fresh_dir()));
  server.start();
  ASSERT_NE(server.store(), nullptr);
  Client client(client_config(server.port()));
  client.connect();
  const OpenParams params = tenant_open("rs", 12, 5);
  (void)run_remote(client, params);

  // Every acknowledged tell was appended (minus in-session duplicates the
  // dedup rule swallows).
  const store::StoreStats stats = server.store()->stats();
  EXPECT_EQ(stats.appends + stats.duplicates, 12u);
  EXPECT_GE(server.store()->tenant_rows(tenant_key(params)), 1u);
  EXPECT_EQ(stats.tenants, 1u);

  // The wire view agrees.
  const Json wire = client.store_stats();
  EXPECT_TRUE(wire.find("store_enabled")->as_bool());
  EXPECT_EQ(wire.find("records")->as_uint64(),
            static_cast<std::uint64_t>(stats.records));
  const Json status = client.status();
  EXPECT_TRUE(status.find("store_enabled")->as_bool());
  EXPECT_EQ(status.find("store")->find("records")->as_uint64(),
            static_cast<std::uint64_t>(stats.records));
  client.disconnect();
  server.stop();
}

TEST(StoreService, AnonymousSessionsStayOutOfTheStore) {
  TuneServer server(store_config(fresh_dir()));
  server.start();
  Client client(client_config(server.port()));
  client.connect();
  OpenParams params = tenant_open("rs", 8, 5);
  params.benchmark.clear();  // no tenant identity -> no store writes
  (void)run_remote(client, params);
  EXPECT_EQ(server.store()->stats().records, 0u);
  client.disconnect();
  server.stop();
}

TEST(StoreService, ExportImportRoundTripsOverTheWire) {
  TuneServer source(store_config(fresh_dir()));
  source.start();
  Client source_client(client_config(source.port()));
  source_client.connect();
  (void)run_remote(source_client, tenant_open("rs", 16, 7));

  TuneServer target(store_config(fresh_dir()));
  target.start();
  Client target_client(client_config(target.port()));
  target_client.connect();

  const std::vector<store::TenantSnapshot> tenants = source_client.store_export();
  ASSERT_FALSE(tenants.empty());
  const std::size_t imported = target_client.store_import(tenants);
  EXPECT_GE(imported, 1u);
  EXPECT_EQ(target.store()->digest(), source.store()->digest());
  // Replayed import: pure duplicates, identical digest.
  EXPECT_EQ(target_client.store_import(tenants), 0u);
  EXPECT_EQ(target.store()->digest(), source.store()->digest());

  source_client.disconnect();
  target_client.disconnect();
  source.stop();
  target.stop();
}

TEST(StoreService, ExportPagesOverTheWireWithCursors) {
  TuneServer server(store_config(fresh_dir()));
  server.start();
  Client client(client_config(server.port()));
  client.connect();
  (void)run_remote(client, tenant_open("rs", 16, 7));
  const std::vector<store::TenantSnapshot> all = client.store_export();
  std::size_t total = 0;
  for (const store::TenantSnapshot& tenant : all) total += tenant.rows.size();
  ASSERT_GE(total, 4u);

  // Page with a tiny limit: each page is exact, the cursor chain terminates,
  // and the stitched rows equal the unpaged export.
  std::size_t paged = 0;
  std::string cursor;
  std::string first_cursor;
  std::size_t pages = 0;
  while (true) {
    const Client::ExportPage page = client.store_export_page("", "", 3, cursor);
    ++pages;
    for (const store::TenantSnapshot& tenant : page.tenants)
      paged += tenant.rows.size();
    ASSERT_EQ(page.truncated, !page.next_cursor.empty());
    if (page.next_cursor.empty()) break;
    cursor = page.next_cursor;
    if (first_cursor.empty()) first_cursor = cursor;
  }
  EXPECT_EQ(paged, total);
  EXPECT_EQ(pages, (total + 2) / 3);

  // A garbage cursor is a typed protocol error, not a silent full restart;
  // so is a row offset past 2^64, which must not wrap around to row 0.
  const std::string key_hex = first_cursor.substr(0, first_cursor.find(':'));
  for (const std::string& bad :
       {std::string("not-a-cursor"), key_hex + ":18446744073709551616", key_hex + ":",
        key_hex + ":-1"}) {
    try {
      (void)client.store_export_page("", "", 0, bad);
      ADD_FAILURE() << "malformed cursor '" << bad << "' was accepted";
    } catch (const ProtocolError& error) {
      EXPECT_EQ(error.code, ErrorCode::kBadRequest) << bad;
    }
  }

  // A limit of 0 would lift the page cap; the daemon refuses it (Client
  // never sends one, so ask over the raw op).
  Json zero = Json::object();
  zero.set("op", "store_export");
  zero.set("limit", std::uint64_t{0});
  try {
    (void)client.call(zero);
    ADD_FAILURE() << "store_export with limit 0 was accepted";
  } catch (const ProtocolError& error) {
    EXPECT_EQ(error.code, ErrorCode::kBadRequest);
  }
  client.disconnect();
  server.stop();
}

TEST(StoreService, IncompatibleImportIsRejectedWithATypedError) {
  TuneServer server(store_config(fresh_dir()));
  server.start();
  Client client(client_config(server.port()));
  client.connect();

  store::TenantSnapshot tenant;
  tenant.key = store::StoreKey{"bench", "arch", "ffffffffffffffff"};
  tenant.rows.push_back(store::StoreRecord{{1, 2, 3}, 10.0, true});
  EXPECT_EQ(client.store_import({tenant}), 1u);
  tenant.rows = {store::StoreRecord{{1, 2}, 5.0, true}};
  try {
    (void)client.store_import({tenant});
    FAIL() << "a dimensionality clash must be refused";
  } catch (const ProtocolError& error) {
    EXPECT_EQ(error.code, ErrorCode::kBadRequest);
    EXPECT_NE(std::string(error.what()).find("holds"), std::string::npos);
  }
  client.disconnect();
  server.stop();
}

TEST(StoreService, StoreOpsWithoutAStoreAnswerCleanly) {
  TuneServer server;  // no store_dir
  server.start();
  Client client(client_config(server.port()));
  client.connect();
  const Json stats = client.store_stats();
  EXPECT_FALSE(stats.find("store_enabled")->as_bool());
  EXPECT_THROW((void)client.store_export(), ProtocolError);
  client.disconnect();
  server.stop();
}

TEST(StoreService, OpenRequestFingerprintsAreCanonical) {
  // A default open resolves to the paper space; a custom open fingerprints
  // its declarative description. Both must match the store library's own
  // derivation, or daemons would scatter one tenant across several keys.
  const OpenParams paper;
  EXPECT_EQ(space_fingerprint_of(paper), store::paper_space_fingerprint());
  const OpenParams custom = tenant_open("rs", 8, 1);
  EXPECT_EQ(space_fingerprint_of(custom),
            store::space_fingerprint(custom.params, custom.constraint));
}

TEST(StoreService, ColdPathIsByteIdenticalWithAStoreAttached) {
  // Warm start off: a store-enabled daemon (recording every tell) must
  // produce bit-identical results to a plain daemon for all five paper
  // algorithms — the store is an observer, never a participant.
  TuneServer plain;
  plain.start();
  TuneServer stored(store_config(fresh_dir()));
  stored.start();
  for (const std::string& algorithm : tuner::paper_algorithms()) {
    const OpenParams params = tenant_open(algorithm, 16, 42);
    Client plain_client(client_config(plain.port()));
    plain_client.connect();
    const Client::RemoteResult baseline = run_remote(plain_client, params);
    plain_client.disconnect();
    Client stored_client(client_config(stored.port()));
    stored_client.connect();
    const Client::RemoteResult observed = run_remote(stored_client, params);
    stored_client.disconnect();
    EXPECT_TRUE(same_result(baseline.result, observed.result))
        << algorithm << " diverged with a results store attached";
  }
  EXPECT_GE(stored.store()->stats().records, 1u);
  plain.stop();
  stored.stop();
}

TEST(StoreService, WarmStartOnAColdStoreIsByteIdenticalToCold) {
  TuneServer plain;
  plain.start();
  TuneServer stored(store_config(fresh_dir()));
  stored.start();
  for (const std::string& algorithm : {std::string("bogp"), std::string("botpe")}) {
    Client plain_client(client_config(plain.port()));
    plain_client.connect();
    const Client::RemoteResult cold =
        run_remote(plain_client, tenant_open(algorithm, 16, 9));
    plain_client.disconnect();
    // warm_start=true against an empty tenant: the derived prior is empty,
    // which the contract requires to be exactly the cold path. Use a
    // distinct benchmark per algorithm so the first run's tells cannot seed
    // the second algorithm's tenant.
    OpenParams params = tenant_open(algorithm, 16, 9, /*warm=*/true);
    params.benchmark = "cold-" + algorithm;
    Client stored_client(client_config(stored.port()));
    stored_client.connect();
    const Client::RemoteResult warm = run_remote(stored_client, params);
    stored_client.disconnect();
    EXPECT_TRUE(same_result(cold.result, warm.result)) << algorithm;
  }
  plain.stop();
  stored.stop();
}

TEST(StoreService, WarmStartIsDeterministicAcrossDaemonsWithEqualStores) {
  // Seed daemon A's store with a real session, copy it to daemon B via
  // export/import, then warm-start the same open on both: byte-identical.
  TuneServer a(store_config(fresh_dir()));
  a.start();
  Client client_a(client_config(a.port()));
  client_a.connect();
  (void)run_remote(client_a, tenant_open("rs", 24, 3));

  TuneServer b(store_config(fresh_dir()));
  b.start();
  Client client_b(client_config(b.port()));
  client_b.connect();
  (void)client_b.store_import(client_a.store_export());
  ASSERT_EQ(a.store()->digest(), b.store()->digest());

  const OpenParams warm = tenant_open("botpe", 16, 11, /*warm=*/true);
  const Client::RemoteResult on_a = run_remote(client_a, warm);
  const Client::RemoteResult on_b = run_remote(client_b, warm);
  EXPECT_TRUE(same_result(on_a.result, on_b.result))
      << "equal stores must warm-start identically";

  // And the prior demonstrably participated: a cold daemon diverges.
  TuneServer plain;
  plain.start();
  Client plain_client(client_config(plain.port()));
  plain_client.connect();
  const Client::RemoteResult cold =
      run_remote(plain_client, tenant_open("botpe", 16, 11));
  EXPECT_FALSE(same_result(cold.result, on_a.result))
      << "the warm prior left the search untouched";
  plain_client.disconnect();
  plain.stop();
  client_a.disconnect();
  client_b.disconnect();
  a.stop();
  b.stop();
}

TEST(StoreService, RecoveryReplaysTheJournaledPriorAndRepopulatesAFreshStore) {
  const std::string state_dir = fresh_dir();
  const OpenParams warm = tenant_open("botpe", 16, 21, /*warm=*/true);
  const tuner::ParamSpace space = warm.make_space();

  // A prior every daemon in this test can be seeded with.
  store::TenantSnapshot seed;
  seed.key = tenant_key(warm);
  for (int a = 1; a <= 8; ++a) {
    const tuner::Configuration config = {a, 9 - a, a % 6};
    const tuner::Evaluation eval = synth_eval(space, config, kSalt);
    seed.rows.push_back(store::StoreRecord{config, eval.value, eval.valid});
  }

  // Control: an uninterrupted warm session on its own daemon.
  tuner::TuneResult control;
  {
    TuneServer server(store_config(fresh_dir()));
    server.start();
    Client client(client_config(server.port()));
    client.connect();
    ASSERT_GE(client.store_import({seed}), 1u);
    control = run_remote(client, warm).result;
    client.disconnect();
    server.stop();
  }

  // Interrupted run: journal to state_dir, crash after 5 tells.
  {
    ServerConfig config = store_config(fresh_dir());
    config.limits.state_dir = state_dir;
    TuneServer server(config);
    server.start();
    Client client(client_config(server.port()));
    client.connect();
    ASSERT_GE(client.store_import({seed}), 1u);
    const std::string id = client.open(warm, "recover#warm");
    for (int i = 0; i < 5; ++i) {
      const auto proposal = client.ask(id);
      ASSERT_TRUE(proposal.has_value());
      (void)client.tell(id, synth_eval(space, *proposal, kSalt));
    }
    client.disconnect();
    server.stop();  // crash: the WAL (including the open's prior) survives
  }

  // Restart over the same journals with a FRESH, EMPTY store. The warm
  // session must resume byte-identically — proof the prior comes from the
  // journal, not from a store that no longer holds it — and the replayed
  // tells must repopulate the new store.
  ServerConfig config = store_config(fresh_dir());
  config.limits.state_dir = state_dir;
  TuneServer server(config);
  server.start();
  ASSERT_EQ(server.sessions().status().recovery.sessions_recovered, 1u);
  Client client(client_config(server.port()));
  client.connect();
  const std::string id = client.open(warm, "recover#warm");  // same token
  while (const auto proposal = client.ask(id)) {
    (void)client.tell(id, synth_eval(space, *proposal, kSalt));
  }
  const Client::RemoteResult resumed = client.result(id);
  EXPECT_TRUE(same_result(control, resumed.result))
      << "warm session diverged across crash + recovery";
  EXPECT_GE(server.store()->tenant_rows(seed.key), 1u)
      << "replayed tells did not repopulate the fresh store";
  client.close_session(id);
  client.disconnect();
  server.stop();
}

}  // namespace
}  // namespace repro::service
