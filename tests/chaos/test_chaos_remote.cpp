// End-to-end chaos: a remote tuning campaign driven through a
// fault-injecting client (seeded drops, torn writes, short reads, delays)
// with retries/reconnect/idempotency enabled must produce results
// byte-identical to a fault-free campaign — and the server must come out
// healthy, with every injected fault absorbed by the resilience machinery.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "service/client.hpp"
#include "service/server.hpp"
#include "tests/service/service_test_util.hpp"
#include "tuner/registry.hpp"

namespace repro::service {
namespace {

using service_test::client_config;
using service_test::synth_objective;
using service_test::tiny_space;

OpenParams tiny_open(const std::string& algorithm, std::size_t budget,
                     std::uint64_t seed) {
  OpenParams params;
  params.algorithm = algorithm;
  params.budget = budget;
  params.seed = seed;
  params.custom_space = true;
  params.params = {{"a", 1, 8}, {"b", 1, 8}, {"c", 0, 5}};
  return params;
}

bool same_result(const tuner::TuneResult& a, const tuner::TuneResult& b) {
  return a.best_config == b.best_config && a.found_valid == b.found_valid &&
         a.evaluations_used == b.evaluations_used &&
         std::memcmp(&a.best_value, &b.best_value, sizeof(double)) == 0;
}

ClientConfig chaos_config(std::uint16_t port, double rate, std::uint64_t seed) {
  ClientConfig config = client_config(port, "chaos");
  config.max_retries = 16;
  config.backoff_initial_ms = 1;
  config.backoff_max_ms = 8;
  config.chaos = ChaosModel::with_rate(rate);
  config.chaos.delay_us = 100;  // keep injected delays negligible
  config.chaos_seed = seed;
  return config;
}

TEST(ChaosRemote, CampaignUnderChaosIsByteIdenticalToCleanRun) {
  ServerConfig server_config;
  server_config.connection_threads = 4;
  TuneServer server(server_config);
  server.start();
  const tuner::ParamSpace space = tiny_space();

  for (const std::string& algorithm : tuner::paper_algorithms()) {
    const OpenParams params = tiny_open(algorithm, 18, 31);
    const tuner::Objective objective = synth_objective(space, /*salt=*/55);

    Client clean(client_config(server.port(), "clean"));
    clean.connect();
    const Client::RemoteResult baseline = clean.remote_minimize(params, objective);
    clean.disconnect();

    // 12% of operations fault; deterministic seed per algorithm, so this
    // test never flakes — the same faults land in the same places forever.
    Client chaotic(chaos_config(server.port(), 0.12,
                                seed_from_string("chaos:" + algorithm)));
    const Client::RemoteResult stressed = chaotic.remote_minimize(params, objective);
    EXPECT_TRUE(same_result(baseline.result, stressed.result))
        << algorithm << " diverged under chaos (retries=" << chaotic.retries()
        << " reconnects=" << chaotic.reconnects() << ")";
    chaotic.disconnect();
  }

  // The machinery was actually exercised: faults landed server-side too
  // (torn frames surface as mid-frame EOFs on healthy connections).
  EXPECT_GT(server.connections().accepted, 5u);
  server.stop();
}

TEST(ChaosRemote, FaultsActuallyFiredAndWereRetried) {
  TuneServer server((ServerConfig()));
  server.start();
  const tuner::ParamSpace space = tiny_space();
  const OpenParams params = tiny_open("rs", 30, 9);

  Client chaotic(chaos_config(server.port(), 0.25, 4242));
  const Client::RemoteResult result =
      chaotic.remote_minimize(params, synth_objective(space, 55));
  EXPECT_TRUE(result.result.evaluations_used > 0);
  // At a 25% fault rate over ~60+ framed exchanges the campaign cannot have
  // run clean: retries and reconnects must be nonzero (deterministic seed).
  EXPECT_GT(chaotic.retries(), 0u);
  EXPECT_GT(chaotic.reconnects(), 0u);
  chaotic.disconnect();
  server.stop();
}

TEST(ChaosRemote, AdmissionPushbackIsHonoredByBackoff) {
  // A one-session server: the second open gets RETRY_LATER and must succeed
  // after the first session closes — the client waits out the hint instead
  // of failing.
  ServerConfig config;
  config.limits.max_sessions = 1;
  config.limits.retry_after_ms = 20;
  TuneServer server(config);
  server.start();

  Client first(client_config(server.port(), "first"));
  first.connect();
  const std::string held = first.open(tiny_open("rs", 10, 1));

  ClientConfig retry_config = client_config(server.port(), "second");
  retry_config.max_retries = 30;
  retry_config.backoff_initial_ms = 1;
  Client second(retry_config);
  second.connect();

  std::thread releaser([&first, &held] {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    first.close_session(held);
  });
  // Blocks through several RETRY_LATER rounds, then succeeds.
  const std::string id = second.open(tiny_open("rs", 10, 2), "second#1");
  EXPECT_FALSE(id.empty());
  releaser.join();
  second.close_session(id);
  first.disconnect();
  second.disconnect();
  server.stop();
}

}  // namespace
}  // namespace repro::service
