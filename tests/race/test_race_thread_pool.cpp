// Race-stress tests for repro::ThreadPool (run under the `tsan` preset to
// surface data races; they must also pass — fast — in every other build).
//
// The pool's contract under concurrency: tasks submitted from any number of
// threads all run exactly once; destruction drains the queue; parallel_for
// is safe to call from several driver threads at once and from inside a
// worker (inline fallback), and a helper that starts after its loop
// returned touches nothing of that loop.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"

namespace {

using repro::ThreadPool;

TEST(RaceThreadPool, ConcurrentSubmittersAllTasksRunOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kDrivers = 4;
  constexpr std::size_t kTasksPerDriver = 200;
  std::atomic<std::size_t> executed{0};

  std::vector<std::thread> drivers;
  drivers.reserve(kDrivers);
  for (std::size_t d = 0; d < kDrivers; ++d) {
    drivers.emplace_back([&pool, &executed] {
      std::vector<std::future<void>> futures;
      futures.reserve(kTasksPerDriver);
      for (std::size_t i = 0; i < kTasksPerDriver; ++i) {
        futures.push_back(pool.submit(
            [&executed] { executed.fetch_add(1, std::memory_order_relaxed); }));
      }
      for (auto& future : futures) future.get();
    });
  }
  for (auto& driver : drivers) driver.join();
  EXPECT_EQ(executed.load(), kDrivers * kTasksPerDriver);
}

TEST(RaceThreadPool, DestructionDrainsQueuedBatch) {
  std::atomic<std::size_t> executed{0};
  constexpr std::size_t kTasks = 500;
  {
    ThreadPool pool(2);
    std::vector<std::function<void()>> batch;
    batch.reserve(kTasks);
    for (std::size_t i = 0; i < kTasks; ++i) {
      batch.emplace_back(
          [&executed] { executed.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.submit_batch(std::move(batch));
    // Destructor runs here: shutdown must not drop queued tasks.
  }
  EXPECT_EQ(executed.load(), kTasks);
}

TEST(RaceThreadPool, ParallelForFromConcurrentDrivers) {
  ThreadPool pool(4);
  constexpr std::size_t kDrivers = 3;
  constexpr std::size_t kItems = 512;
  std::vector<std::vector<int>> buffers(kDrivers, std::vector<int>(kItems, 0));

  std::vector<std::thread> drivers;
  drivers.reserve(kDrivers);
  for (std::size_t d = 0; d < kDrivers; ++d) {
    drivers.emplace_back([&pool, &buffers, d] {
      repro::parallel_for(pool, 0, kItems, [&buffers, d](std::size_t i) {
        buffers[d][i] += static_cast<int>(i % 7) + 1;
      });
    });
  }
  for (auto& driver : drivers) driver.join();
  for (std::size_t d = 0; d < kDrivers; ++d) {
    long long sum = std::accumulate(buffers[d].begin(), buffers[d].end(), 0LL);
    long long expect = 0;
    for (std::size_t i = 0; i < kItems; ++i) expect += static_cast<int>(i % 7) + 1;
    EXPECT_EQ(sum, expect) << "driver " << d;
  }
}

TEST(RaceThreadPool, NestedParallelForRunsInline) {
  ThreadPool pool(3);
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 64;
  std::vector<std::atomic<std::size_t>> counts(kOuter);
  repro::parallel_for(pool, 0, kOuter, [&](std::size_t o) {
    // Nested call from a worker: must degrade to the inline loop rather
    // than deadlock the fully-occupied pool.
    repro::parallel_for(pool, 0, kInner, [&counts, o](std::size_t) {
      counts[o].fetch_add(1, std::memory_order_relaxed);
    });
  });
  for (std::size_t o = 0; o < kOuter; ++o) EXPECT_EQ(counts[o].load(), kInner);
}

TEST(RaceThreadPool, SmallLoopsOutrunTheirHelpers) {
  // Tiny loops from several drivers on a small pool: a caller often claims
  // every block before its helpers start, so those helpers run after
  // parallel_for returned and its body and slots are gone. They must claim
  // nothing; a late write into a driver's freed slots is a race and a
  // use-after-free.
  ThreadPool pool(2);
  constexpr std::size_t kDrivers = 4;
  constexpr std::size_t kLoops = 200;
  constexpr std::size_t kItems = 6;
  std::atomic<std::size_t> mismatches{0};

  std::vector<std::thread> drivers;
  drivers.reserve(kDrivers);
  for (std::size_t d = 0; d < kDrivers; ++d) {
    drivers.emplace_back([&pool, &mismatches] {
      for (std::size_t loop = 0; loop < kLoops; ++loop) {
        std::vector<std::size_t> slots(kItems, 0);
        repro::parallel_for(pool, 0, kItems, [&slots](std::size_t i) { slots[i] = i + 1; });
        for (std::size_t i = 0; i < kItems; ++i) {
          if (slots[i] != i + 1) mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& driver : drivers) driver.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

TEST(RaceThreadPool, ExceptionFromChunkPropagatesOnce) {
  ThreadPool pool(4);
  std::atomic<std::size_t> ran{0};
  EXPECT_THROW(
      repro::parallel_for(pool, 0, 256,
                          [&ran](std::size_t i) {
                            ran.fetch_add(1, std::memory_order_relaxed);
                            if (i == 100) throw std::runtime_error("boom");
                          }),
      std::runtime_error);
  EXPECT_GE(ran.load(), 1u);
}

}  // namespace
