// AUQ poison-task escape hatch (AuqOptions::max_attempts + dead-letter
// list) and crash-abandon gauge hygiene.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "core/auq.h"
#include "fault/failpoint.h"
#include "obs/metrics.h"
#include "../core/auq_test_util.h"

namespace diffindex {
namespace {

IndexTask MakeTask(const std::string& row) {
  IndexTask task;
  task.base_table = "t";
  task.row = row;
  task.cells = {Cell{"c", "v", false}};
  task.ts = 1;
  task.index.name = "by_c";
  task.index.column = "c";
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

TEST(AuqDeadLetterTest, PoisonTaskIsDeadLetteredAfterMaxAttempts) {
  obs::MetricsRegistry metrics;
  AuqOptions options;
  options.worker_threads = 1;
  options.retry_backoff_ms = 1;
  options.max_attempts = 3;
  options.metrics = &metrics;
  std::atomic<int> attempts{0};
  AsyncUpdateQueue auq(options, PerTask([&](const IndexTask&) {
    attempts.fetch_add(1);
    return Status::IOError("poison");
  }));

  ASSERT_TRUE(auq.Enqueue(MakeTask("r1")));
  ASSERT_TRUE(WaitFor([&] { return auq.dead_letters() == 1; }));
  EXPECT_EQ(attempts.load(), 3);
  EXPECT_EQ(auq.depth(), 0u);
  EXPECT_EQ(metrics.GetGauge("auq.depth")->value(), 0);
  EXPECT_EQ(metrics.GetGauge("auq.dead_letters")->value(), 1);

  std::vector<IndexTask> dead = auq.DrainDeadLetters();
  ASSERT_EQ(dead.size(), 1u);
  EXPECT_EQ(dead[0].row, "r1");
  EXPECT_EQ(dead[0].attempts, 3);
  EXPECT_EQ(auq.dead_letters(), 0u);
  EXPECT_EQ(metrics.GetGauge("auq.dead_letters")->value(), 0);

  auq.Shutdown();
}

// "auq.dead_letter" models a crash between the escape decision and the
// in-memory record landing: the worker's queue bookkeeping still runs
// (no wedge, gauges return to zero) but the dead-letter record is lost,
// which is exactly the window a Cleanse sweep has to repair.
TEST(AuqDeadLetterTest, DeadLetterCrashWindowLosesRecordButNotBookkeeping) {
  obs::MetricsRegistry metrics;
  AuqOptions options;
  options.worker_threads = 1;
  options.retry_backoff_ms = 1;
  options.max_attempts = 3;
  options.metrics = &metrics;
  std::atomic<int> attempts{0};
  AsyncUpdateQueue auq(options, PerTask([&](const IndexTask&) {
    attempts.fetch_add(1);
    return Status::IOError("poison");
  }));

  fault::FailpointRegistry::Global()->Arm(
      "auq.dead_letter", fault::FailpointPolicy::ErrorEveryNth(1));
  ASSERT_TRUE(auq.Enqueue(MakeTask("r1")));
  ASSERT_TRUE(WaitFor([&] { return attempts.load() == 3; }));
  auq.WaitDrained();  // in-flight accounting survived the lost record
  EXPECT_EQ(auq.dead_letters(), 0u);  // ...but the record itself did not
  EXPECT_EQ(auq.depth(), 0u);
  EXPECT_EQ(metrics.GetGauge("auq.depth")->value(), 0);
  EXPECT_EQ(metrics.GetGauge("auq.dead_letters")->value(), 0);
  fault::FailpointRegistry::Global()->Disarm("auq.dead_letter");

  // Disarmed, the next poison task is recorded normally.
  ASSERT_TRUE(auq.Enqueue(MakeTask("r2")));
  ASSERT_TRUE(WaitFor([&] { return auq.dead_letters() == 1; }));
  EXPECT_EQ(metrics.GetGauge("auq.dead_letters")->value(), 1);
  auq.Shutdown();
}

TEST(AuqDeadLetterTest, DefaultRetriesForeverUntilSuccess) {
  AuqOptions options;
  options.worker_threads = 1;
  options.retry_backoff_ms = 1;  // max_attempts stays 0: paper semantics
  std::atomic<int> attempts{0};
  AsyncUpdateQueue auq(options, PerTask([&](const IndexTask&) {
    // Fails more times than any sane bounded-retry default before
    // succeeding — eventual delivery must still happen.
    return attempts.fetch_add(1) < 12 ? Status::Unavailable("later")
                                      : Status::OK();
  }));
  ASSERT_TRUE(auq.Enqueue(MakeTask("r1")));
  ASSERT_TRUE(WaitFor([&] { return auq.processed() == 1; }));
  EXPECT_EQ(auq.dead_letters(), 0u);
  EXPECT_EQ(attempts.load(), 13);
  auq.Shutdown();
}

TEST(AuqDeadLetterTest, AbandonDropsBacklogAndSquaresDepthGauge) {
  obs::MetricsRegistry metrics;
  AuqOptions options;
  options.worker_threads = 1;
  options.retry_backoff_ms = 1;
  options.metrics = &metrics;
  std::atomic<bool> block{true};
  std::atomic<bool> started{false};
  AsyncUpdateQueue auq(options, PerTask([&](const IndexTask&) {
    started.store(true);
    while (block.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return Status::OK();
  }));
  for (int i = 0; i < 5; i++) {
    ASSERT_TRUE(auq.Enqueue(MakeTask("r" + std::to_string(i))));
  }
  const bool picked_up = WaitFor([&] { return started.load(); });
  if (!picked_up) block.store(false);  // let the worker die before we join
  ASSERT_TRUE(picked_up);
  EXPECT_GT(metrics.GetGauge("auq.depth")->value(), 0);

  // Abandon while the worker is stuck inside task 1: the queued backlog is
  // dropped immediately; the in-flight task is released afterwards and
  // completes, but nothing behind it is delivered.
  std::thread unblocker([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    block.store(false);
  });
  auq.Abandon();
  unblocker.join();
  // Crash semantics: backlog dropped, not delivered — and the shared depth
  // gauge must not keep counting ghost tasks.
  EXPECT_EQ(auq.processed(), 1u);
  EXPECT_EQ(metrics.GetGauge("auq.depth")->value(), 0);
  EXPECT_FALSE(auq.Enqueue(MakeTask("late")));
}

TEST(AuqDeadLetterTest, GracefulShutdownStillDeliversBacklog) {
  obs::MetricsRegistry metrics;
  AuqOptions options;
  options.worker_threads = 1;
  options.retry_backoff_ms = 1;
  options.metrics = &metrics;
  std::atomic<int> delivered{0};
  AsyncUpdateQueue auq(options, PerTask([&](const IndexTask&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    delivered.fetch_add(1);
    return Status::OK();
  }));
  for (int i = 0; i < 5; i++) {
    ASSERT_TRUE(auq.Enqueue(MakeTask("r" + std::to_string(i))));
  }
  auq.Shutdown();
  EXPECT_EQ(delivered.load(), 5);
  EXPECT_EQ(metrics.GetGauge("auq.depth")->value(), 0);
}

}  // namespace
}  // namespace diffindex
