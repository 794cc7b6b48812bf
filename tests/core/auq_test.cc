// Unit tests of the asynchronous update queue + processing service in
// isolation: enqueue/process, the pause-drain-resume protocol of Figure 5,
// retry-until-success, backpressure and shutdown.

#include "core/auq.h"
#include "auq_test_util.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

namespace diffindex {
namespace {

IndexTask MakeTask(int i) {
  IndexTask task;
  task.base_table = "t";
  task.row = "row" + std::to_string(i);
  task.ts = TimestampOracle::NowMicros();
  return task;
}

TEST(AuqTest, ProcessesEnqueuedTasks) {
  std::atomic<int> processed{0};
  AuqOptions options;
  AsyncUpdateQueue auq(options, PerTask([&](const IndexTask&) {
    processed++;
    return Status::OK();
  }));
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(auq.Enqueue(MakeTask(i)));
  }
  auq.WaitDrained();
  EXPECT_EQ(processed.load(), 50);
  EXPECT_EQ(auq.processed(), 50u);
  EXPECT_EQ(auq.depth(), 0u);
}

TEST(AuqTest, TasksCarryPayload) {
  std::atomic<bool> seen{false};
  AuqOptions options;
  AsyncUpdateQueue auq(options, PerTask([&](const IndexTask& task) {
    EXPECT_EQ(task.base_table, "t");
    EXPECT_EQ(task.row, "row7");
    seen = true;
    return Status::OK();
  }));
  ASSERT_TRUE(auq.Enqueue(MakeTask(7)));
  auq.WaitDrained();
  EXPECT_TRUE(seen.load());
}

TEST(AuqTest, PauseBlocksEnqueueUntilResume) {
  AuqOptions options;
  AsyncUpdateQueue auq(options,
                       PerTask([](const IndexTask&) { return Status::OK(); }));
  auq.Pause();
  std::atomic<bool> enqueued{false};
  std::thread producer([&] {
    ASSERT_TRUE(auq.Enqueue(MakeTask(1)));
    enqueued = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(enqueued.load());  // still blocked by the pause
  auq.Resume();
  producer.join();
  EXPECT_TRUE(enqueued.load());
  auq.WaitDrained();
}

TEST(AuqTest, WaitDrainedWaitsForInFlightTask) {
  std::atomic<bool> release{false};
  std::atomic<bool> done{false};
  AuqOptions options;
  options.worker_threads = 1;
  AsyncUpdateQueue auq(options, PerTask([&](const IndexTask&) {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    done = true;
    return Status::OK();
  }));
  ASSERT_TRUE(auq.Enqueue(MakeTask(1)));
  std::thread drainer([&] {
    auq.WaitDrained();
    // The in-flight task must have finished before the drain returned.
    EXPECT_TRUE(done.load());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  release = true;
  drainer.join();
}

TEST(AuqTest, FailedTasksRetryUntilSuccess) {
  std::atomic<int> attempts{0};
  AuqOptions options;
  options.retry_backoff_ms = 1;
  AsyncUpdateQueue auq(options, PerTask([&](const IndexTask&) {
    // Fail the first three deliveries.
    if (attempts.fetch_add(1) < 3) return Status::Unavailable("down");
    return Status::OK();
  }));
  ASSERT_TRUE(auq.Enqueue(MakeTask(1)));
  auq.WaitDrained();
  EXPECT_EQ(attempts.load(), 4);
  EXPECT_EQ(auq.retries(), 3u);
  EXPECT_EQ(auq.processed(), 1u);
}

TEST(AuqTest, PauseNestingFromConcurrentFlushes) {
  AuqOptions options;
  AsyncUpdateQueue auq(options,
                       PerTask([](const IndexTask&) { return Status::OK(); }));
  auq.Pause();
  auq.Pause();  // two regions flushing at once
  auq.Resume();
  std::atomic<bool> enqueued{false};
  std::thread producer([&] {
    (void)auq.Enqueue(MakeTask(1));
    enqueued = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(enqueued.load());  // one pause still outstanding
  auq.Resume();
  producer.join();
  auq.WaitDrained();
}

TEST(AuqTest, BoundedQueueAppliesBackpressure) {
  std::atomic<bool> release{false};
  AuqOptions options;
  options.worker_threads = 1;
  options.max_depth = 2;
  AsyncUpdateQueue auq(options, PerTask([&](const IndexTask&) {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return Status::OK();
  }));
  // Fill: one in-flight + two queued.
  ASSERT_TRUE(auq.Enqueue(MakeTask(1)));
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_TRUE(auq.Enqueue(MakeTask(2)));
  ASSERT_TRUE(auq.Enqueue(MakeTask(3)));
  std::atomic<bool> fourth_in{false};
  std::thread producer([&] {
    (void)auq.Enqueue(MakeTask(4));
    fourth_in = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(fourth_in.load());  // blocked on capacity
  release = true;
  producer.join();
  auq.WaitDrained();
}

TEST(AuqTest, ShutdownUnblocksEverything) {
  AuqOptions options;
  AsyncUpdateQueue auq(options,
                       PerTask([](const IndexTask&) { return Status::OK(); }));
  auq.Pause();
  std::thread producer([&] {
    EXPECT_FALSE(auq.Enqueue(MakeTask(1)));  // released by shutdown
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  auq.Shutdown();
  producer.join();
  EXPECT_FALSE(auq.Enqueue(MakeTask(2)));
}

TEST(AuqTest, StalenessSamplesRecorded) {
  AuqOptions options;
  options.staleness_sample_every = 1;
  AsyncUpdateQueue auq(options,
                       PerTask([](const IndexTask&) { return Status::OK(); }));
  for (int i = 0; i < 20; i++) {
    IndexTask task = MakeTask(i);
    task.ts = TimestampOracle::NowMicros() - 5000;  // 5 ms "ago"
    ASSERT_TRUE(auq.Enqueue(std::move(task)));
  }
  auq.WaitDrained();
  EXPECT_EQ(auq.staleness().Count(), 20u);
  EXPECT_GE(auq.staleness().Min(), 5000u);
}

}  // namespace
}  // namespace diffindex
