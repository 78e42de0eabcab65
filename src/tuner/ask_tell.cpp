#include "tuner/ask_tell.hpp"

#include <utility>

namespace repro::tuner {

AskTellSession::AskTellSession(const ParamSpace& space,
                               std::unique_ptr<SearchAlgorithm> algorithm,
                               std::size_t budget, std::uint64_t seed,
                               RetryPolicy retry)
    : space_(space),
      algorithm_(std::move(algorithm)),
      budget_(budget),
      retry_(retry),
      name_(algorithm_ ? algorithm_->name() : "") {
  if (!algorithm_) throw std::invalid_argument("AskTellSession: null algorithm");
  // Dedicated thread by design (see the member's comment in the header).
  thread_ = std::thread([this, seed] { search_main(seed); });  // NOLINT(reprolint-raw-thread)
}

AskTellSession::~AskTellSession() {
  cancel();
  if (thread_.joinable()) thread_.join();
}

Evaluation AskTellSession::proxy_measure(const Configuration& config) {
  repro::MutexLock lock(mutex_);
  if (cancelled_) throw SessionCancelled();
  pending_ = config;
  has_pending_ = true;
  has_reply_ = false;
  cv_.notify_all();
  while (!has_reply_ && !cancelled_) cv_.wait(lock.native());
  if (!has_reply_) throw SessionCancelled();
  has_reply_ = false;
  return reply_;
}

void AskTellSession::search_main(std::uint64_t seed) {
  TuneResult result;
  FailureCounters counters;
  std::exception_ptr error;
  try {
    repro::Rng rng(seed);
    Evaluator evaluator(
        space_, [this](const Configuration& config) { return proxy_measure(config); },
        budget_);
    evaluator.set_retry_policy(retry_);
    try {
      result = algorithm_->minimize(space_, evaluator, rng);
    } catch (...) {
      error = std::current_exception();
    }
    counters = evaluator.counters();
  } catch (...) {
    // Evaluator construction failed — nothing partial to report.
    error = std::current_exception();
  }
  repro::MutexLock lock(mutex_);
  result_ = std::move(result);
  counters_ = counters;
  error_ = error;
  finished_ = true;
  has_pending_ = false;
  cv_.notify_all();
}

std::optional<Configuration> AskTellSession::ask() {
  return ask_impl(nullptr);
}

std::optional<Configuration> AskTellSession::ask_until(
    std::chrono::steady_clock::time_point deadline) {
  return ask_impl(&deadline);
}

std::optional<Configuration> AskTellSession::ask_impl(
    const std::chrono::steady_clock::time_point* deadline) {
  repro::MutexLock lock(mutex_);
  if (cancelled_) throw SessionCancelled();
  if (outstanding_) throw AskPendingError();
  while (!has_pending_ && !finished_ && !cancelled_) {
    if (deadline == nullptr) {
      cv_.wait(lock.native());
    } else if (cv_.wait_until(lock.native(), *deadline) == std::cv_status::timeout &&
               !has_pending_ && !finished_ && !cancelled_) {
      // Expiry claims nothing: the proposal (when it lands) stays available
      // to the next ask.
      throw DeadlineExceeded();
    }
  }
  if (cancelled_) throw SessionCancelled();
  if (has_pending_) {
    outstanding_ = true;
    ++asks_;
    return pending_;
  }
  return std::nullopt;
}

std::optional<Configuration> AskTellSession::outstanding_config() const {
  repro::MutexLock lock(mutex_);
  if (!outstanding_) return std::nullopt;
  return pending_;
}

void AskTellSession::tell(const Evaluation& evaluation) {
  repro::MutexLock lock(mutex_);
  if (!outstanding_) throw TellMismatchError();
  outstanding_ = false;
  has_pending_ = false;
  reply_ = evaluation;
  has_reply_ = true;
  ++tells_;
  cv_.notify_all();
}

bool AskTellSession::finished() const {
  repro::MutexLock lock(mutex_);
  return finished_;
}

bool AskTellSession::ask_outstanding() const {
  repro::MutexLock lock(mutex_);
  return outstanding_;
}

std::size_t AskTellSession::asks() const {
  repro::MutexLock lock(mutex_);
  return asks_;
}

std::size_t AskTellSession::tells() const {
  repro::MutexLock lock(mutex_);
  return tells_;
}

TuneResult AskTellSession::result() {
  repro::MutexLock lock(mutex_);
  while (!finished_) cv_.wait(lock.native());
  if (error_) std::rethrow_exception(error_);
  return result_;
}

TuneResult AskTellSession::result_until(std::chrono::steady_clock::time_point deadline) {
  repro::MutexLock lock(mutex_);
  while (!finished_) {
    if (cv_.wait_until(lock.native(), deadline) == std::cv_status::timeout &&
        !finished_) {
      throw DeadlineExceeded();
    }
  }
  if (error_) std::rethrow_exception(error_);
  return result_;
}

FailureCounters AskTellSession::counters() const {
  repro::MutexLock lock(mutex_);
  return counters_;
}

void AskTellSession::cancel() {
  repro::MutexLock lock(mutex_);
  cancelled_ = true;
  cv_.notify_all();
}

}  // namespace repro::tuner
