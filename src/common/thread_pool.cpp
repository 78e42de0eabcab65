#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <utility>

namespace repro {

namespace {
/// Pool whose work this thread is running: set for the pool's workers and,
/// while it claims blocks, for a parallel_for caller (nullptr otherwise).
thread_local const ThreadPool* t_worker_pool = nullptr;

/// State one parallel_for call shares with its helpers. Runners claim block
/// numbers from `next`; the caller returns once `finished` reaches `blocks`.
/// A runner whose claim lands past the last block leaves without touching
/// `body`, which may already be gone when a late helper starts.
struct BlockLoop {
  const ThreadPool* pool;
  const std::function<void(std::size_t)>* body;
  std::size_t begin;
  std::size_t end;
  std::size_t grain;
  std::size_t blocks;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> finished{0};
  Mutex mutex;
  std::condition_variable all_finished;
  std::exception_ptr first_error GUARDED_BY(mutex);

  void run() {
    const ThreadPool* outer = std::exchange(t_worker_pool, pool);
    for (std::size_t b = next.fetch_add(1, std::memory_order_relaxed); b < blocks;
         b = next.fetch_add(1, std::memory_order_relaxed)) {
      const std::size_t lo = begin + b * grain;
      const std::size_t hi = lo + std::min(grain, end - lo);
      try {
        for (std::size_t i = lo; i < hi; ++i) (*body)(i);
      } catch (...) {
        MutexLock lock(mutex);
        if (!first_error) first_error = std::current_exception();
      }
      if (finished.fetch_add(1, std::memory_order_acq_rel) + 1 == blocks) {
        MutexLock lock(mutex);
        all_finished.notify_all();
      }
    }
    t_worker_pool = outer;
  }
};
}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  // Shutdown handoff: the flag flips under the lock, the broadcast happens
  // outside it, and workers drain the remaining queue before exiting — a
  // worker that wakes between the unlock and the join re-checks both
  // `stopping_` and the queue under the lock, so no task is dropped.
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

bool ThreadPool::on_worker_thread() const noexcept { return t_worker_pool == this; }

void ThreadPool::worker_loop() {
  t_worker_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      while (!stopping_ && queue_.empty()) cv_.wait(lock.native());
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::submit_batch(std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return;
  {
    MutexLock lock(mutex_);
    for (auto& task : tasks) queue_.emplace_back(std::move(task));
  }
  cv_.notify_all();
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body, std::size_t grain) {
  if (begin >= end) return;
  grain = std::max<std::size_t>(1, grain);
  const std::size_t n = end - begin;
  const std::size_t blocks = n / grain + (n % grain != 0 ? 1 : 0);
  // A nested call gets no helpers: every runner of this pool is already
  // busy, so queued helpers would only start after the loop is over.
  const std::size_t helpers =
      pool.on_worker_thread() ? 0 : std::min(pool.size() - 1, blocks - 1);
  if (helpers == 0) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }

  auto loop = std::make_shared<BlockLoop>();
  loop->pool = &pool;
  loop->body = &body;
  loop->begin = begin;
  loop->end = end;
  loop->grain = grain;
  loop->blocks = blocks;
  std::vector<std::function<void()>> tasks(helpers, [loop] { loop->run(); });
  pool.submit_batch(std::move(tasks));
  loop->run();

  // The last runner notifies while holding the mutex, so it cannot slip in
  // between this check and the wait.
  MutexLock lock(loop->mutex);
  while (loop->finished.load(std::memory_order_acquire) != blocks) {
    loop->all_finished.wait(lock.native());
  }
  if (loop->first_error) std::rethrow_exception(loop->first_error);
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body, std::size_t grain) {
  parallel_for(ThreadPool::global(), begin, end, body, grain);
}

}  // namespace repro
