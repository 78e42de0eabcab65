// Race-stress tests for the service SessionManager: idle eviction racing
// live open/ask/tell/close traffic, the session-limit check racing
// concurrent opens, and the first-touch replay of followed sessions racing
// concurrent asks and closes. Every operation either succeeds or surfaces a
// typed ProtocolError — never a crash, hang, or corrupted counter. Run
// under the `tsan` preset to surface lock-discipline bugs.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "service/session_manager.hpp"
#include "tests/service/service_test_util.hpp"

namespace repro::service {
namespace {

using service_test::synth_eval;
using service_test::tiny_space;

OpenParams tiny_open(std::uint64_t seed, std::size_t budget) {
  OpenParams params;
  params.algorithm = "rs";
  params.budget = budget;
  params.seed = seed;
  params.custom_space = true;
  params.params = {{"a", 1, 8}, {"b", 1, 8}, {"c", 0, 5}};
  return params;
}

TEST(RaceSessionManager, EvictionRacesLiveTraffic) {
  SessionLimits limits;
  limits.max_sessions = 64;
  limits.idle_timeout = std::chrono::milliseconds(1);  // evict aggressively
  SessionManager manager(limits);
  const tuner::ParamSpace space = tiny_space();
  const std::uint64_t salt = seed_from_string("race-evict");

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> completed{0};
  std::atomic<std::size_t> interrupted{0};

  // Eviction thread: hammers evict_idle() with a 1ms idle budget, so
  // sessions paused between driver steps routinely get ripped away.
  std::thread evictor([&manager, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      manager.evict_idle();
      std::this_thread::yield();
    }
  });

  constexpr std::size_t kDrivers = 3;
  constexpr std::size_t kRoundsPerDriver = 20;
  std::vector<std::thread> drivers;
  drivers.reserve(kDrivers);
  for (std::size_t d = 0; d < kDrivers; ++d) {
    drivers.emplace_back([&, d] {
      for (std::size_t round = 0; round < kRoundsPerDriver; ++round) {
        try {
          const std::string id =
              manager.open(tiny_open(seed_combine(d, round), /*budget=*/8));
          while (auto config = manager.ask(id)) {
            manager.tell(id, synth_eval(space, *config, salt));
            if (round % 4 == 1) std::this_thread::yield();  // widen the window
          }
          (void)manager.result(id);
          manager.close(id);
          completed.fetch_add(1, std::memory_order_relaxed);
        } catch (const ProtocolError&) {
          // Session was evicted (or closed) under us — a legal outcome of
          // the race; the driver just moves on to its next session.
          interrupted.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& driver : drivers) driver.join();
  stop.store(true, std::memory_order_relaxed);
  evictor.join();

  EXPECT_EQ(completed.load() + interrupted.load(), kDrivers * kRoundsPerDriver);
  const StatusReport report = manager.status();
  // Conservation: every opened session is live, closed, or evicted.
  EXPECT_EQ(report.opened, report.live_sessions + report.closed + report.evicted);
  manager.cancel_all();
  EXPECT_EQ(manager.live(), 0u);
}

TEST(RaceSessionManager, ConcurrentOpensRespectSessionLimit) {
  SessionLimits limits;
  limits.max_sessions = 4;
  limits.idle_timeout = std::chrono::milliseconds(0);  // disable eviction
  SessionManager manager(limits);

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kAttemptsPerThread = 12;
  std::atomic<std::size_t> accepted{0};
  std::atomic<std::size_t> rejected{0};

  std::vector<std::thread> openers;
  openers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    openers.emplace_back([&, t] {
      for (std::size_t i = 0; i < kAttemptsPerThread; ++i) {
        try {
          const std::string id =
              manager.open(tiny_open(seed_combine(t, i), /*budget=*/4));
          accepted.fetch_add(1, std::memory_order_relaxed);
          EXPECT_LE(manager.live(), limits.max_sessions);
          manager.close(id);
        } catch (const ProtocolError& error) {
          EXPECT_EQ(error.code, ErrorCode::kSessionLimit);
          rejected.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& opener : openers) opener.join();

  EXPECT_EQ(accepted.load() + rejected.load(), kThreads * kAttemptsPerThread);
  EXPECT_EQ(manager.live(), 0u);
  const StatusReport report = manager.status();
  EXPECT_EQ(report.opened, accepted.load());
  EXPECT_EQ(report.closed, accepted.load());
}

TEST(RaceSessionManager, CancelAllRacesBlockedResult) {
  // result() blocks until the search finishes; cancel_all() must eject the
  // blocked caller with kSessionClosed instead of deadlocking.
  SessionManager manager;
  const std::string id = manager.open(tiny_open(42, /*budget=*/1000));

  std::atomic<bool> ejected{false};
  std::thread caller([&manager, &id, &ejected] {
    try {
      (void)manager.result(id);  // parks: the session never gets a tell
    } catch (const ProtocolError& error) {
      // kUnknownSession covers the (rare) schedule where cancel_all() wins
      // the race and removes the session before result() even looks it up.
      EXPECT_TRUE(error.code == ErrorCode::kSessionClosed ||
                  error.code == ErrorCode::kUnknownSession)
          << static_cast<int>(error.code);
      ejected.store(true, std::memory_order_relaxed);
    }
  });
  // Give the caller a chance to park in result() before cancelling.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  manager.cancel_all();
  caller.join();
  EXPECT_TRUE(ejected.load());
}

TEST(RaceSessionManager, FirstTouchAfterFollowReplaysOnce) {
  // Each session is followed (ship_open plus shipped tells, no search), then
  // first-touched by two threads at once — a plain ask and an ask with
  // resume — while a third thread closes every third session.
  const std::vector<std::string> algorithms = {"bogp", "rs", "ga", "botpe", "bogp", "rf"};
  constexpr std::size_t kBudget = 14;
  constexpr std::size_t kFollowed = 6;
  // Closed sessions follow fewer tells, so a second replay of an open
  // session cannot hide in their share of tells_replayed.
  constexpr std::size_t kClosedFollowed = 5;
  const auto closes = [](std::size_t i) { return i % 3 == 2; };
  const tuner::ParamSpace space = tiny_space();
  const std::uint64_t salt = seed_from_string("race-first-touch");

  // Uninterrupted reference runs.
  struct Run {
    OpenParams params;
    std::vector<tuner::Configuration> proposals;
    tuner::TuneResult result;
  };
  std::vector<Run> runs(algorithms.size());
  SessionManager reference;
  for (std::size_t i = 0; i < algorithms.size(); ++i) {
    runs[i].params = tiny_open(seed_combine(salt, i), kBudget);
    runs[i].params.algorithm = algorithms[i];
    const std::string id = reference.open(runs[i].params);
    while (const auto config = reference.ask(id)) {
      runs[i].proposals.push_back(*config);
      (void)reference.tell(id, synth_eval(space, *config, salt), runs[i].proposals.size());
    }
    runs[i].result = reference.result(id).result;
    reference.close(id);
    ASSERT_GT(runs[i].proposals.size(), kFollowed) << algorithms[i];
  }

  SessionManager follower;
  std::vector<std::string> ids;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    ids.push_back("s" + std::to_string(i + 1));
    follower.follow_open(ids[i], runs[i].params, "");
    const std::size_t followed = closes(i) ? kClosedFollowed : kFollowed;
    for (std::size_t seq = 1; seq <= followed; ++seq) {
      const tuner::Configuration& config = runs[i].proposals[seq - 1];
      (void)follower.follow_tell(ids[i], seq, config, synth_eval(space, config, salt));
    }
  }

  struct Touch {
    std::optional<tuner::Configuration> config;
    std::optional<ErrorCode> error;
  };
  std::vector<std::array<Touch, 2>> touches(runs.size());
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    for (std::size_t t = 0; t < 2; ++t) {
      threads.emplace_back([&, i, t] {
        while (!go.load()) std::this_thread::yield();
        try {
          touches[i][t].config = follower.ask(ids[i], std::nullopt, /*resume=*/t == 1);
        } catch (const ProtocolError& error) {
          touches[i][t].error = error.code;
        }
      });
    }
  }
  threads.emplace_back([&] {
    while (!go.load()) std::this_thread::yield();
    for (std::size_t i = 0; i < runs.size(); ++i) {
      if (closes(i)) follower.close(ids[i]);
    }
  });
  go.store(true);
  for (auto& thread : threads) thread.join();

  std::size_t open_sessions = 0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    for (const Touch& touch : touches[i]) {
      if (touch.error.has_value()) {
        // The loser of the ask race sees the winner's outstanding proposal;
        // a closed session may also be gone or cancelled under the op.
        EXPECT_TRUE(*touch.error == ErrorCode::kAskPending ||
                    (closes(i) && (*touch.error == ErrorCode::kUnknownSession ||
                                   *touch.error == ErrorCode::kSessionClosed)))
            << ids[i] << " error " << to_string(*touch.error);
      } else if (!closes(i)) {
        EXPECT_EQ(touch.config, runs[i].proposals[kFollowed]) << ids[i];
      }
    }
    if (closes(i)) continue;
    ++open_sessions;
    ASSERT_TRUE(touches[i][0].config.has_value() || touches[i][1].config.has_value())
        << ids[i];
    // Finish on the follower; it must match the uninterrupted run exactly.
    std::vector<tuner::Configuration> proposals(runs[i].proposals.begin(),
                                                runs[i].proposals.begin() + kFollowed + 1);
    std::uint64_t seq = kFollowed + 1;
    (void)follower.tell(ids[i], synth_eval(space, proposals.back(), salt), seq++);
    while (const auto config = follower.ask(ids[i])) {
      proposals.push_back(*config);
      (void)follower.tell(ids[i], synth_eval(space, *config, salt), seq++);
    }
    EXPECT_EQ(proposals, runs[i].proposals) << ids[i];
    const tuner::TuneResult result = follower.result(ids[i]).result;
    EXPECT_EQ(result.best_config, runs[i].result.best_config) << ids[i];
    EXPECT_EQ(result.found_valid, runs[i].result.found_valid) << ids[i];
    EXPECT_EQ(result.evaluations_used, runs[i].result.evaluations_used) << ids[i];
    EXPECT_EQ(std::memcmp(&result.best_value, &runs[i].result.best_value, sizeof(double)), 0)
        << ids[i];
  }

  // One replay per touched session: the open sessions' share is exact, and
  // what is left is a whole number of closed sessions' journals.
  const RecoveryStats recovery = follower.status().recovery;
  EXPECT_EQ(recovery.sessions_failed, 0u);
  const std::size_t open_share = kFollowed * open_sessions;
  ASSERT_GE(recovery.tells_replayed, open_share);
  const std::size_t closed_share = recovery.tells_replayed - open_share;
  EXPECT_EQ(closed_share % kClosedFollowed, 0u) << recovery.tells_replayed;
  EXPECT_LE(closed_share, kClosedFollowed * (runs.size() - open_sessions))
      << recovery.tells_replayed;
  follower.cancel_all();
}

}  // namespace
}  // namespace repro::service
