// Thread pool and parallel_for behaviour: completeness, exception
// propagation, grain edge cases, self-scheduling, and future-based task
// submission.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"

namespace repro {
namespace {

TEST(ThreadPool, SizeDefaultsToAtLeastOne) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, SubmitReturnsValue) {
  ThreadPool pool(2);
  auto future = pool.submit([] { return 7 * 6; });
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPool, SubmitPropagatesException) {
  ThreadPool pool(2);
  auto future = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPool, ManyTasksAllRun) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.submit([&counter] { counter.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(pool, 0, hits.size(),
               [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool ran = false;
  parallel_for(pool, 5, 5, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ParallelFor, SingleElement) {
  ThreadPool pool(2);
  int value = 0;
  parallel_for(pool, 3, 4, [&](std::size_t i) { value = static_cast<int>(i); });
  EXPECT_EQ(value, 3);
}

TEST(ParallelFor, NonZeroBegin) {
  ThreadPool pool(3);
  std::atomic<long> sum{0};
  parallel_for(pool, 10, 110, [&](std::size_t i) { sum.fetch_add(static_cast<long>(i)); });
  long expected = 0;
  for (long i = 10; i < 110; ++i) expected += i;
  EXPECT_EQ(sum.load(), expected);
}

TEST(ParallelFor, PropagatesFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      parallel_for(pool, 0, 100,
                   [&](std::size_t i) {
                     if (i == 37) throw std::runtime_error("fail at 37");
                   }),
      std::runtime_error);
}

TEST(ParallelFor, GlobalPoolOverload) {
  std::atomic<int> counter{0};
  parallel_for(0, 50, [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 50);
}

TEST(ParallelFor, MatchesSequentialLoopForEveryGrain) {
  // Slot-indexed writes: the parallel result must equal the sequential loop
  // element for element, whichever runner claims each block.
  ThreadPool pool(4);
  const std::size_t n = 257;
  std::vector<double> expected(n);
  for (std::size_t i = 0; i < n; ++i) {
    expected[i] = static_cast<double>(i) * 1.5 - 3.0;
  }
  for (std::size_t grain : {0u, 1u, 8u, 64u, 256u, 257u, 1000u}) {
    std::vector<double> got(n, 0.0);
    parallel_for(
        pool, 0, n,
        [&](std::size_t i) { got[i] = static_cast<double>(i) * 1.5 - 3.0; },
        grain);
    EXPECT_EQ(got, expected) << "grain=" << grain;
  }
}

TEST(ParallelFor, GrainCapsDispatchForTinyLoops) {
  // With grain >= n the loop must still cover every index (it is a single
  // block and runs inline).
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  parallel_for(pool, 0, 5, [&](std::size_t) { counter.fetch_add(1); }, 100);
  EXPECT_EQ(counter.load(), 5);
}

/// Barrier for `parties` threads that gives up after `timeout`. Once one
/// waiter times out the barrier stays broken and later arrivals return at
/// once, so a schedule that serialises the parties fails in one timeout.
class TimedBarrier {
 public:
  TimedBarrier(int parties, std::chrono::seconds timeout)
      : parties_(parties), timeout_(timeout) {}

  /// True when all parties arrived before the timeout.
  bool arrive_and_wait() {
    std::unique_lock lock(mutex_);
    if (++arrived_ == parties_) all_arrived_.notify_all();
    const bool met = all_arrived_.wait_for(
        lock, timeout_, [&] { return arrived_ >= parties_ || broken_; });
    if (!met) {
      broken_ = true;
      all_arrived_.notify_all();
    }
    return !broken_;
  }

 private:
  std::mutex mutex_;
  std::condition_variable all_arrived_;
  const int parties_;
  const std::chrono::seconds timeout_;
  int arrived_ = 0;
  bool broken_ = false;
};

TEST(ParallelFor, HeavyTailIndicesRunConcurrently) {
  // The last four indices stand for a panel's slow BO GP tail: they can
  // only pass the barrier if four runners hold one each at the same time.
  // Pre-cut contiguous chunks would put all four on one thread.
  ThreadPool pool(4);
  const std::size_t n = 64;
  TimedBarrier tail(4, std::chrono::seconds(10));
  std::atomic<int> met{0};
  std::vector<std::atomic<int>> hits(n);
  parallel_for(pool, 0, n, [&](std::size_t i) {
    hits[i].fetch_add(1);
    if (i >= n - 4 && tail.arrive_and_wait()) met.fetch_add(1);
  });
  EXPECT_EQ(met.load(), 4);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, LateHelperNeverTouchesTheBody) {
  // Park both workers so the helper parallel_for queues can only start
  // after the call returned and its body was freed. The caller must not
  // wait for that helper, and the helper must find no block to claim: a
  // call through the freed body is a heap-use-after-free under ASan.
  auto pool = std::make_unique<ThreadPool>(2);
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::atomic<int> parked{0};
  std::vector<std::future<void>> parkers;
  for (int w = 0; w < 2; ++w) {
    parkers.push_back(pool->submit([gate, &parked] {
      parked.fetch_add(1);
      gate.wait();
    }));
  }
  while (parked.load() < 2) std::this_thread::yield();

  std::atomic<int> calls{0};
  auto body = std::make_unique<std::function<void(std::size_t)>>(
      [&calls](std::size_t) { calls.fetch_add(1); });
  parallel_for(*pool, 0, 32, *body);
  EXPECT_EQ(calls.load(), 32);
  body.reset();

  release.set_value();
  for (auto& parker : parkers) parker.get();
  pool.reset();  // drains the queued helper before joining
  EXPECT_EQ(calls.load(), 32);
}

TEST(ParallelFor, NestedCallDoesNotDeadlock) {
  // A body that itself calls parallel_for on the same pool must complete:
  // the inner call detects it is on a worker thread and runs inline.
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  parallel_for(pool, 0, 8, [&](std::size_t) {
    EXPECT_TRUE(pool.on_worker_thread());
    parallel_for(pool, 0, 8, [&](std::size_t) { counter.fetch_add(1); });
  });
  EXPECT_EQ(counter.load(), 64);
}

TEST(ParallelFor, OnWorkerThreadFalseOnCaller) {
  ThreadPool pool(2);
  EXPECT_FALSE(pool.on_worker_thread());
}

TEST(ThreadPool, SubmitBatchRunsEveryTask) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  std::atomic<int> done{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 64; ++i) {
    tasks.emplace_back([&] {
      counter.fetch_add(1);
      done.fetch_add(1);
    });
  }
  pool.submit_batch(std::move(tasks));
  while (done.load() < 64) std::this_thread::yield();
  EXPECT_EQ(counter.load(), 64);
}

}  // namespace
}  // namespace repro
