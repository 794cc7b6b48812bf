// The "auq.process" failpoint on a batched drain: it is consulted once per
// drain unit, before the processor, whatever drain_batch_size is. A fired
// point fails the whole unit; every survivor in it is retried and then
// delivered, so nothing is lost and nothing is dead-lettered.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "core/auq.h"
#include "fault/failpoint.h"
#include "../core/auq_test_util.h"

namespace diffindex {
namespace {

IndexTask MakeTask(const std::string& row, Timestamp ts) {
  IndexTask task;
  task.base_table = "t";
  task.row = row;
  task.ts = ts;
  task.old_ts = ts;
  task.index.name = "by_c";
  return task;
}

template <typename Pred>
bool WaitFor(Pred pred, int timeout_ms = 5000) {
  for (int i = 0; i < timeout_ms; i++) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

// All tasks hit one (index, row), so every drain unit coalesces to a
// single survivor: however the worker splits the backlog into units,
// exactly one survivor fails, once.
TEST(AuqProcessFailpointTest, ErrorOnceOnBatchedDrainRetriesOnce) {
  fault::ScopedFailpointCleanup cleanup;
  AuqOptions options;
  options.worker_threads = 1;
  options.drain_batch_size = 4;
  options.retry_backoff_ms = 1;
  std::atomic<int> delivered{0};
  AsyncUpdateQueue auq(options, PerTask([&](const IndexTask&) {
    delivered.fetch_add(1);
    return Status::OK();
  }));

  fault::FailpointRegistry::Global()->Arm(
      "auq.process", fault::FailpointPolicy::ErrorOnce());
  constexpr uint64_t kTasks = 10;
  for (uint64_t i = 1; i <= kTasks; i++) {
    ASSERT_TRUE(auq.Enqueue(MakeTask("r", i)));
  }
  auq.WaitDrained();

  EXPECT_EQ(auq.retries(), 1u);
  EXPECT_EQ(auq.processed(), kTasks);
  EXPECT_EQ(auq.dead_letters(), 0u);
  EXPECT_EQ(auq.depth(), 0u);
  EXPECT_GE(delivered.load(), 1);
  auq.Shutdown();
}

// Distinct rows: a unit of drain_batch_size survivors fails as a whole,
// and each of its members is retried. The first task parks the only
// worker until the backlog holds a full unit, and the point is armed
// only then, so the failed unit is exactly the next four tasks.
TEST(AuqProcessFailpointTest, FiredPointRetriesEveryMemberOfTheUnit) {
  fault::ScopedFailpointCleanup cleanup;
  AuqOptions options;
  options.worker_threads = 1;
  options.drain_batch_size = 4;
  options.retry_backoff_ms = 1;
  std::atomic<bool> release{false};
  std::atomic<int> started{0};
  AsyncUpdateQueue auq(options, PerTask([&](const IndexTask&) {
    started.fetch_add(1);
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return Status::OK();
  }));

  ASSERT_TRUE(auq.Enqueue(MakeTask("r0", 1)));
  ASSERT_TRUE(WaitFor([&] { return started.load() == 1; }));
  constexpr uint64_t kTasks = 9;
  for (uint64_t i = 1; i < kTasks; i++) {
    ASSERT_TRUE(auq.Enqueue(MakeTask("r" + std::to_string(i), i + 1)));
  }
  fault::FailpointRegistry::Global()->Arm(
      "auq.process", fault::FailpointPolicy::ErrorOnce());
  release.store(true);
  auq.WaitDrained();

  EXPECT_EQ(auq.retries(), 4u);
  EXPECT_EQ(auq.processed(), kTasks);
  EXPECT_EQ(auq.dead_letters(), 0u);
  EXPECT_EQ(auq.depth(), 0u);
  auq.Shutdown();
}

}  // namespace
}  // namespace diffindex
