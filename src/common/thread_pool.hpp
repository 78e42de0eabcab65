#pragma once
// Fixed-size worker pool with a shared task queue, plus a self-scheduling
// parallel_for built on top of it. Experiments in the harness are
// embarrassingly parallel (independent seeded runs), so a simple FIFO pool
// is sufficient; tasks must not throw across the pool boundary unless the
// caller collects the exception through the returned future.
//
// parallel_for hands out `grain`-sized blocks of the index range from one
// shared atomic cursor. The calling thread claims blocks alongside up to
// pool.size() - 1 helper tasks, submitted in one batch, so a run of slow
// indices spreads over every runner instead of landing in one pre-cut
// chunk. Once the cursor is exhausted the caller waits only for blocks
// still running; a helper that starts later finds nothing to claim and
// never touches the body. Which thread runs an index is therefore not
// fixed, and callers get deterministic output by writing indexed slots.
//
// parallel_for is safe to nest: a call from a thread that is already
// running this pool's work (a worker, or a caller inside its own loop) gets
// no helpers and runs inline, so it never queues work behind busy runners.
// An exception ends the block that threw it; the other blocks still run,
// and the first exception is rethrown on the caller once all have finished.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "common/thread_annotations.hpp"

namespace repro {

class ThreadPool {
 public:
  /// Create a pool with `threads` workers (0 = hardware concurrency).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// True when the calling thread is one of this pool's workers, or a
  /// parallel_for caller on this pool while it runs blocks of its own loop.
  [[nodiscard]] bool on_worker_thread() const noexcept;

  /// Enqueue a task; the future reports its result or exception.
  template <typename F>
  [[nodiscard]] std::future<std::invoke_result_t<F>> submit(F&& fn) {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    {
      MutexLock lock(mutex_);
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return result;
  }

  /// Enqueue a batch of tasks under one lock with one wakeup broadcast.
  /// Exceptions must be handled inside the tasks themselves.
  void submit_batch(std::vector<std::function<void()>> tasks);

  /// Process-wide shared pool (created lazily, sized to hardware concurrency).
  static ThreadPool& global();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  Mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_ GUARDED_BY(mutex_);
  bool stopping_ GUARDED_BY(mutex_) = false;
};

/// Run body(i) for i in [begin, end) across the pool, blocking until done.
/// The caller and up to pool.size() - 1 helpers claim blocks of `grain`
/// consecutive indices until none are left. Runs inline when the range is
/// a single block, the pool has one worker, or the call is nested inside
/// this pool's work. The first exception thrown by the body is rethrown.
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body, std::size_t grain = 1);

/// Convenience overload on the global pool.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body, std::size_t grain = 1);

}  // namespace repro
