#pragma once
// Ask/tell inversion of SearchAlgorithm::minimize().
//
// minimize() owns the control flow: it pulls measurements from an Evaluator
// until the budget runs out. Remote tuning needs the opposite — the caller
// owns the loop and the algorithm is a passive suggestion engine
// (Kernel Tuner-style ask() -> Configuration / tell(measurement)).
//
// AskTellSession performs the inversion without touching any algorithm:
// the algorithm runs unmodified on a dedicated thread against a normal
// Evaluator whose Objective is a blocking proxy. When the algorithm
// requests a fresh measurement, the proxy parks the search thread and
// surfaces the configuration through ask(); tell() delivers the
// measurement and resumes the search. Because the only substitution is
// the Objective closure — the Evaluator, its cache, its retry policy, and
// the algorithm's RNG stream are untouched — a session is bit-identical
// to an in-process minimize() run with the same seeds (proven by
// tests/service/test_ask_tell.cpp for all five paper algorithms).
//
// Threading contract: ask()/tell()/result()/cancel() may be called from
// any thread (the service serializes per session); the search thread only
// ever blocks inside the proxy, so cancel() can always unpark it.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/rng.hpp"
#include "common/thread_annotations.hpp"
#include "tuner/tuner.hpp"

namespace repro::tuner {

/// Thrown inside the search thread (and out of ask()) when the session is
/// cancelled while a measurement is pending.
struct SessionCancelled : std::runtime_error {
  SessionCancelled() : std::runtime_error("ask/tell session cancelled") {}
};

/// ask() called while a previous ask() still awaits its tell().
struct AskPendingError : std::logic_error {
  AskPendingError() : std::logic_error("ask() while a measurement is outstanding") {}
};

/// tell() called with no outstanding ask() to answer.
struct TellMismatchError : std::logic_error {
  TellMismatchError() : std::logic_error("tell() without an outstanding ask()") {}
};

/// A timed ask_until()/result_until() expired before the search thread
/// produced what the caller was waiting for. Session state is untouched:
/// the proposal (once ready) is still unclaimed and the op can be retried.
struct DeadlineExceeded : std::runtime_error {
  DeadlineExceeded() : std::runtime_error("ask/tell deadline exceeded") {}
};

class AskTellSession {
 public:
  /// Starts the search thread immediately. `space` must outlive the
  /// session. `retry` mirrors Evaluator::set_retry_policy — each retry of
  /// a transient measurement surfaces as a fresh ask() of the same
  /// configuration and costs one unit of budget.
  AskTellSession(const ParamSpace& space, std::unique_ptr<SearchAlgorithm> algorithm,
                 std::size_t budget, std::uint64_t seed, RetryPolicy retry = {});
  /// Cancels and joins the search thread.
  ~AskTellSession();

  AskTellSession(const AskTellSession&) = delete;
  AskTellSession& operator=(const AskTellSession&) = delete;

  /// Block until the algorithm proposes a fresh measurement (returns the
  /// configuration) or terminates (returns nullopt; result() is ready).
  /// Throws AskPendingError if a proposal is already outstanding and
  /// SessionCancelled after cancel().
  [[nodiscard]] std::optional<Configuration> ask();

  /// ask() with a deadline (service deadline_ms support). Throws
  /// DeadlineExceeded on expiry without claiming the proposal, so a later
  /// ask()/ask_until() still observes it.
  [[nodiscard]] std::optional<Configuration> ask_until(
      std::chrono::steady_clock::time_point deadline);

  /// The proposal handed out by the last ask() and not yet answered, if
  /// any. Lets a reconnecting client resume an interrupted exchange
  /// idempotently instead of tripping AskPendingError.
  [[nodiscard]] std::optional<Configuration> outstanding_config() const;

  /// Deliver the measurement for the configuration returned by the last
  /// ask(). Throws TellMismatchError when nothing is outstanding.
  void tell(const Evaluation& evaluation);
  /// Shorthand for a successful measurement.
  void tell(double value) { tell(Evaluation{value, true, EvalStatus::kOk}); }

  [[nodiscard]] bool finished() const;
  /// True between an ask() and its tell().
  [[nodiscard]] bool ask_outstanding() const;
  [[nodiscard]] std::size_t asks() const;
  [[nodiscard]] std::size_t tells() const;
  [[nodiscard]] std::size_t budget() const noexcept { return budget_; }
  [[nodiscard]] const std::string& algorithm_name() const noexcept { return name_; }

  /// Block until the search thread terminates and return its TuneResult.
  /// Rethrows whatever escaped minimize() (including SessionCancelled).
  [[nodiscard]] TuneResult result();

  /// result() with a deadline; throws DeadlineExceeded on expiry.
  [[nodiscard]] TuneResult result_until(std::chrono::steady_clock::time_point deadline);

  /// Evaluator measurement tallies; complete once finished() is true.
  [[nodiscard]] FailureCounters counters() const;

  /// Unblock the search thread with SessionCancelled and refuse further
  /// asks. Idempotent; does not wait for the thread (the destructor joins).
  void cancel();

 private:
  Evaluation proxy_measure(const Configuration& config);
  void search_main(std::uint64_t seed);
  std::optional<Configuration> ask_impl(
      const std::chrono::steady_clock::time_point* deadline);

  const ParamSpace& space_;
  std::unique_ptr<SearchAlgorithm> algorithm_;
  const std::size_t budget_;
  const RetryPolicy retry_;
  std::string name_;

  mutable repro::Mutex mutex_;
  std::condition_variable cv_;
  /// Proposal the search thread is parked on.
  Configuration pending_ GUARDED_BY(mutex_);
  bool has_pending_ GUARDED_BY(mutex_) = false;
  /// pending_ was handed out via ask().
  bool outstanding_ GUARDED_BY(mutex_) = false;
  Evaluation reply_ GUARDED_BY(mutex_);
  bool has_reply_ GUARDED_BY(mutex_) = false;
  bool cancelled_ GUARDED_BY(mutex_) = false;
  bool finished_ GUARDED_BY(mutex_) = false;
  std::size_t asks_ GUARDED_BY(mutex_) = 0;
  std::size_t tells_ GUARDED_BY(mutex_) = 0;
  TuneResult result_ GUARDED_BY(mutex_);
  FailureCounters counters_ GUARDED_BY(mutex_);
  std::exception_ptr error_ GUARDED_BY(mutex_);
  /// One dedicated search thread per session is the ask/tell design: it
  /// spends its life parked in proxy_measure, and a ThreadPool worker
  /// blocking there would deadlock the pool under concurrent sessions.
  std::thread thread_;  // NOLINT(reprolint-raw-thread) last member: starts after state is ready
};

}  // namespace repro::tuner
