// TuneServer end-to-end over loopback: handshake discipline and frame errors
// (on tuned and on tunelb, which share the connection core), typed errors,
// remote-equals-in-process for every paper algorithm, idle eviction,
// graceful drain, and a 64-concurrent-session stress test with per-session
// result verification (any cross-wired or lost evaluation changes a
// result and fails the equality check).

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "service/client.hpp"
#include "service/router.hpp"
#include "service/server.hpp"
#include "tests/service/service_test_util.hpp"
#include "tuner/evaluator.hpp"
#include "tuner/registry.hpp"

namespace repro::service {
namespace {

using service_test::client_config;
using service_test::synth_eval;
using service_test::synth_objective;
using service_test::tiny_space;

ServerConfig fast_config() {
  ServerConfig config;
  config.poll_interval = std::chrono::milliseconds(20);
  return config;
}

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

tuner::TuneResult reference_minimize(const std::string& algorithm, std::size_t budget,
                                     std::uint64_t seed, std::uint64_t salt,
                                     tuner::FailureCounters* counters = nullptr) {
  const tuner::ParamSpace space = tiny_space();
  Rng rng(seed);
  tuner::Evaluator evaluator(space, synth_objective(space, salt), budget);
  const tuner::TuneResult result =
      tuner::make_algorithm(algorithm)->minimize(space, evaluator, rng);
  if (counters != nullptr) *counters = evaluator.counters();
  return result;
}

bool same_result(const tuner::TuneResult& a, const tuner::TuneResult& b) {
  return a.best_config == b.best_config && a.found_valid == b.found_valid &&
         a.evaluations_used == b.evaluations_used &&
         std::memcmp(&a.best_value, &b.best_value, sizeof(double)) == 0;
}

TEST(Server, RemoteEqualsInProcessForAllPaperAlgorithms) {
  TuneServer server(fast_config());
  server.start();
  Client client(client_config(server.port()));
  client.connect();

  const tuner::ParamSpace space = tiny_space();
  const std::uint64_t salt = seed_from_string("server-identity");
  for (const std::string& id : tuner::paper_algorithms()) {
    const std::uint64_t seed = seed_combine(7, seed_from_string(id));
    const Client::RemoteResult remote =
        client.remote_minimize(tiny_open(id, 40, seed), synth_objective(space, salt));
    tuner::FailureCounters direct_counters;
    const tuner::TuneResult direct =
        reference_minimize(id, 40, seed, salt, &direct_counters);
    EXPECT_TRUE(same_result(remote.result, direct)) << id;
    EXPECT_EQ(remote.counters.ok, direct_counters.ok) << id;
    EXPECT_EQ(remote.counters.invalid, direct_counters.invalid) << id;
  }
  client.disconnect();
  server.stop();
}

/// The connection core's frame discipline, on a tuned daemon and on a
/// one-shard tunelb in front of one: both serve it from the same core.
class FrameCore : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    server_.start();
    if (std::string(GetParam()) == "tunelb") {
      RouterConfig config;
      config.shards = {{"127.0.0.1", server_.port(), "127.0.0.1", 0}};
      config.probe_interval = std::chrono::milliseconds(0);
      config.poll_interval = std::chrono::milliseconds(20);
      router_ = std::make_unique<Router>(config);
      router_->start();
    }
  }
  void TearDown() override {
    if (router_ != nullptr) router_->stop();
    server_.stop();
  }
  [[nodiscard]] std::uint16_t port() const {
    return router_ != nullptr ? router_->port() : server_.port();
  }

 private:
  TuneServer server_{fast_config()};
  std::unique_ptr<Router> router_;
};

INSTANTIATE_TEST_SUITE_P(Endpoint, FrameCore, ::testing::Values("tuned", "tunelb"));

TEST_P(FrameCore, HelloHandshakeIsRequiredAndVersionChecked) {
  // Op before hello -> typed error, connection stays usable.
  {
    Socket raw = Socket::connect_loopback(port());
    FrameReader reader(raw);
    Json status = Json::object();
    status.set("op", "status");
    ASSERT_TRUE(write_frame(raw, status));
    std::string line;
    ASSERT_EQ(reader.next(&line), FrameStatus::kOk);
    const Json response = Json::parse(line);
    EXPECT_FALSE(response.find("ok")->as_bool());
    EXPECT_EQ(response.find("error")->as_string(), "hello_required");
  }

  // Wrong version -> typed error, then the server closes the connection.
  {
    Socket raw = Socket::connect_loopback(port());
    FrameReader reader(raw);
    Json hello = Json::object();
    hello.set("op", "hello");
    hello.set("version", 99);
    ASSERT_TRUE(write_frame(raw, hello));
    std::string line;
    ASSERT_EQ(reader.next(&line), FrameStatus::kOk);
    EXPECT_EQ(Json::parse(line).find("error")->as_string(), "version_mismatch");
    EXPECT_EQ(reader.next(&line), FrameStatus::kClosed);
  }
}

TEST_P(FrameCore, MalformedFrameGetsTypedErrorAndConnectionSurvives) {
  Socket raw = Socket::connect_loopback(port());
  FrameReader reader(raw);
  const char* garbage = "this is not json\n";
  ASSERT_TRUE(raw.write_all(garbage, std::strlen(garbage)));
  std::string line;
  ASSERT_EQ(reader.next(&line), FrameStatus::kOk);
  EXPECT_EQ(Json::parse(line).find("error")->as_string(), "malformed_frame");

  // The stream resynchronizes on the newline: a valid hello still works.
  Json hello = Json::object();
  hello.set("op", "hello");
  hello.set("version", 1);
  ASSERT_TRUE(write_frame(raw, hello));
  ASSERT_EQ(reader.next(&line), FrameStatus::kOk);
  EXPECT_TRUE(Json::parse(line).find("ok")->as_bool());
}

TEST_P(FrameCore, OversizedFrameIsConnectionFatal) {
  Socket raw = Socket::connect_loopback(port());
  FrameReader reader(raw);
  const std::string huge(kMaxFrameBytes + 64, 'x');
  ASSERT_TRUE(raw.write_all(huge.data(), huge.size()));
  std::string line;
  ASSERT_EQ(reader.next(&line), FrameStatus::kOk);
  EXPECT_EQ(Json::parse(line).find("error")->as_string(), "oversized_frame");
  EXPECT_EQ(reader.next(&line), FrameStatus::kClosed);
}

TEST(Server, TypedSessionErrors) {
  TuneServer server(fast_config());
  server.start();
  Client client(client_config(server.port()));
  client.connect();

  try {
    (void)client.ask("s999");
    FAIL() << "expected unknown session";
  } catch (const ProtocolError& error) {
    EXPECT_EQ(error.code, ErrorCode::kUnknownSession);
  }

  const std::string session = client.open(tiny_open("rs", 10, 1));
  const auto first = client.ask(session);
  ASSERT_TRUE(first.has_value());
  // The client helper sends resume:true, so a repeated ask re-fetches the
  // outstanding proposal (reconnect idempotency) instead of failing...
  const auto again = client.ask(session);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(*again, *first);
  // ...while a raw ask without resume still trips the typed ask_pending.
  Json raw_ask = Json::object();
  raw_ask.set("op", "ask");
  raw_ask.set("session", session);
  try {
    (void)client.call(raw_ask);
    FAIL() << "expected ask_pending";
  } catch (const ProtocolError& error) {
    EXPECT_EQ(error.code, ErrorCode::kAskPending);
  }
  (void)client.tell(session, 1.0);
  try {
    (void)client.tell(session, 2.0);  // nothing outstanding now
    FAIL() << "expected no_ask_outstanding";
  } catch (const ProtocolError& error) {
    EXPECT_EQ(error.code, ErrorCode::kNoAskOutstanding);
  }

  Json bogus = Json::object();
  bogus.set("op", "frobnicate");
  try {
    (void)client.call(bogus);
    FAIL() << "expected unknown op";
  } catch (const ProtocolError& error) {
    EXPECT_EQ(error.code, ErrorCode::kUnknownOp);
  }

  client.close_session(session);
  client.disconnect();
  server.stop();
}

TEST(Server, SessionLimitIsEnforced) {
  ServerConfig config = fast_config();
  config.limits.max_sessions = 2;
  TuneServer server(config);
  server.start();
  Client client(client_config(server.port()));
  client.connect();
  const std::string a = client.open(tiny_open("rs", 10, 1));
  const std::string b = client.open(tiny_open("rs", 10, 2));
  try {
    (void)client.open(tiny_open("rs", 10, 3));
    FAIL() << "expected admission pushback";
  } catch (const ProtocolError& error) {
    // Admission control answers the retryable kRetryLater with a backoff
    // hint instead of the legacy hard kSessionLimit.
    EXPECT_EQ(error.code, ErrorCode::kRetryLater);
    EXPECT_GT(error.retry_after_ms, 0u);
  }
  client.close_session(a);
  // Freed capacity is reusable.
  const std::string c = client.open(tiny_open("rs", 10, 4));
  client.close_session(b);
  client.close_session(c);
  client.disconnect();
  server.stop();
}

TEST(Server, StatusReportsSessionsAndFailureTallies) {
  TuneServer server(fast_config());
  server.start();
  Client client(client_config(server.port()));
  client.connect();

  const std::string session = client.open(tiny_open("rs", 10, 1));
  ASSERT_TRUE(client.ask(session).has_value());
  (void)client.tell(session, 1.5);
  ASSERT_TRUE(client.ask(session).has_value());
  (void)client.tell(session, tuner::Evaluation{0.0, false, tuner::EvalStatus::kCrashed});

  const Json status = client.status();
  EXPECT_TRUE(status.find("ok")->as_bool());
  EXPECT_EQ(status.find("live_sessions")->as_uint64(), 1u);
  EXPECT_EQ(status.find("opened")->as_uint64(), 1u);
  EXPECT_EQ(status.find("asks")->as_uint64(), 2u);
  EXPECT_EQ(status.find("tells")->as_uint64(), 2u);
  EXPECT_FALSE(status.find("draining")->as_bool());
  EXPECT_GE(status.find("active_connections")->as_uint64(), 1u);
  // The PR-1 failure taxonomy surfaces in the aggregate tallies.
  const Json* tallies = status.find("tallies");
  ASSERT_NE(tallies, nullptr);
  EXPECT_EQ(tallies->find("ok")->as_uint64(), 1u);
  EXPECT_EQ(tallies->find("crashed")->as_uint64(), 1u);
  // Per-session detail rows.
  const Json* sessions = status.find("sessions");
  ASSERT_NE(sessions, nullptr);
  ASSERT_EQ(sessions->as_array().size(), 1u);
  EXPECT_EQ(sessions->as_array()[0].find("id")->as_string(), session);
  EXPECT_EQ(sessions->as_array()[0].find("tells")->as_uint64(), 2u);

  client.close_session(session);
  client.disconnect();
  server.stop();
}

TEST(Server, IdleSessionsAreEvicted) {
  ServerConfig config = fast_config();
  config.limits.idle_timeout = std::chrono::milliseconds(100);
  TuneServer server(config);
  server.start();
  Client client(client_config(server.port()));
  client.connect();
  const std::string session = client.open(tiny_open("rs", 10, 1));
  ASSERT_TRUE(client.ask(session).has_value());

  // Go idle past the timeout; the accept-tick heartbeat reaps the session.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.sessions().live() > 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(server.sessions().live(), 0u);
  EXPECT_GE(server.sessions().status().evicted, 1u);
  try {
    (void)client.ask(session);
    FAIL() << "expected eviction error";
  } catch (const ProtocolError& error) {
    // The tombstone distinguishes "reaped by policy" from "never existed".
    EXPECT_EQ(error.code, ErrorCode::kSessionEvicted);
  }
  try {
    (void)client.ask("s999");
    FAIL() << "expected unknown session";
  } catch (const ProtocolError& error) {
    EXPECT_EQ(error.code, ErrorCode::kUnknownSession);
  }
  client.disconnect();
  server.stop();
}

TEST(Server, DrainRefusesNewSessionsThenCompletes) {
  TuneServer server(fast_config());
  server.start();
  Client client(client_config(server.port()));
  client.connect();
  const std::string session = client.open(tiny_open("rs", 5, 1));

  // Begin draining on a helper thread (deadline generous); the live session
  // and connection hold it open.
  std::thread drainer([&] { EXPECT_TRUE(server.drain(std::chrono::seconds(10))); });
  while (!server.draining()) std::this_thread::sleep_for(std::chrono::milliseconds(5));

  // New connections are refused (listener closed)...
  EXPECT_THROW((void)Socket::connect_loopback(server.port()), std::runtime_error);
  // ...and new sessions on live connections get the typed draining error...
  try {
    (void)client.open(tiny_open("rs", 5, 2));
    FAIL() << "expected draining";
  } catch (const ProtocolError& error) {
    EXPECT_EQ(error.code, ErrorCode::kDraining);
  }
  // ...but in-flight work runs to completion.
  while (auto config = client.ask(session)) (void)client.tell(session, 1.0);
  const Client::RemoteResult remote = client.result(session);
  EXPECT_EQ(remote.result.evaluations_used, 5u);
  client.close_session(session);
  client.disconnect();
  drainer.join();
  server.stop();
}

// The acceptance stress: >= 64 concurrent sessions (16 connections x 4
// sessions, ask/tell round-robin interleaved per connection) with zero
// lost or cross-wired evaluations — each session's salt makes its
// measurement stream unique, so any mix-up flips its final result away
// from the in-process reference.
TEST(Server, StressSixtyFourInterleavedSessions) {
  constexpr std::size_t kClients = 16;
  constexpr std::size_t kSessionsPerClient = 4;
  constexpr std::size_t kBudget = 12;
  const char* kAlgorithms[] = {"rs", "ga", "rf", "rs"};

  ServerConfig config = fast_config();
  // Sessions outnumber connection workers by 3x; connections must not.
  config.connection_threads = kClients + 2;
  TuneServer server(config);
  server.start();

  const tuner::ParamSpace space = tiny_space();
  std::vector<std::string> failures(kClients);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (std::size_t t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      try {
        Client client(client_config(server.port(), "stress"));
        client.connect();
        struct Live {
          std::string id;
          std::uint64_t seed = 0;
          std::uint64_t salt = 0;
          std::size_t algorithm = 0;
          bool done = false;
        };
        std::vector<Live> sessions(kSessionsPerClient);
        for (std::size_t s = 0; s < kSessionsPerClient; ++s) {
          Live& live = sessions[s];
          live.algorithm = s;
          live.seed = seed_combine(t, s * 1000 + 17);
          live.salt = seed_combine(live.seed, seed_from_string("salt"));
          live.id = client.open(tiny_open(kAlgorithms[s], kBudget, live.seed));
        }
        // Round-robin: one ask/tell exchange per session per lap, so the
        // connection constantly switches between its sessions.
        std::size_t remaining = kSessionsPerClient;
        while (remaining > 0) {
          for (Live& live : sessions) {
            if (live.done) continue;
            const auto config_opt = client.ask(live.id);
            if (!config_opt) {
              live.done = true;
              --remaining;
              continue;
            }
            (void)client.tell(live.id, synth_eval(space, *config_opt, live.salt));
          }
        }
        for (Live& live : sessions) {
          const Client::RemoteResult remote = client.result(live.id);
          const tuner::TuneResult direct = reference_minimize(
              kAlgorithms[live.algorithm], kBudget, live.seed, live.salt);
          if (!same_result(remote.result, direct)) {
            failures[t] = "session " + live.id + " diverged from reference";
            return;
          }
          client.close_session(live.id);
        }
        client.disconnect();
      } catch (const std::exception& error) {
        failures[t] = error.what();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (std::size_t t = 0; t < kClients; ++t) {
    EXPECT_TRUE(failures[t].empty()) << "client " << t << ": " << failures[t];
  }

  const StatusReport report = server.sessions().status();
  EXPECT_EQ(report.opened, kClients * kSessionsPerClient);
  EXPECT_EQ(report.closed, kClients * kSessionsPerClient);
  EXPECT_EQ(report.live_sessions, 0u);
  EXPECT_EQ(report.tells, report.asks - kClients * kSessionsPerClient);
  server.stop();
}

}  // namespace
}  // namespace repro::service
