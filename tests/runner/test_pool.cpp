#include "common/pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <mutex>
#include <set>
#include <thread>

namespace skh::runner {
namespace {

TEST(ThreadPool, RunsEveryJobExactlyOnce) {
  common::ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, SingleWorkerStillDrains) {
  common::ThreadPool pool(1);
  std::atomic<int> count{0};
  for (int i = 0; i < 10; ++i) {
    pool.submit([&] { ++count; });
  }
  pool.wait();
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, ZeroMeansHardwareConcurrency) {
  common::ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, WaitIsReusableAcrossBatches) {
  common::ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.submit([&] { ++count; });
  pool.wait();
  EXPECT_EQ(count.load(), 1);
  pool.submit([&] { ++count; });
  pool.submit([&] { ++count; });
  pool.wait();
  EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPool, SlotIndexedWritesNeedNoSynchronization) {
  // The runner's usage pattern: each job owns one result slot.
  common::ThreadPool pool(4);
  std::vector<int> results(64, -1);
  for (std::size_t i = 0; i < results.size(); ++i) {
    pool.submit([&results, i] { results[i] = static_cast<int>(i) * 2; });
  }
  pool.wait();
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], static_cast<int>(i) * 2);
  }
}

TEST(ThreadPool, DestructorJoinsCleanly) {
  std::atomic<int> count{0};
  {
    common::ThreadPool pool(3);
    for (int i = 0; i < 20; ++i) pool.submit([&] { ++count; });
    pool.wait();
  }  // ~ThreadPool joins workers
  EXPECT_EQ(count.load(), 20);
}

}  // namespace
}  // namespace skh::runner
