// Stress test of the AUQ's flush-coordination protocol (Figure 5) under
// concurrency: producers enqueue continuously while a "flusher" repeatedly
// runs the Pause -> WaitDrained -> Resume cycle a memstore flush performs.
// Invariants checked at every drain point and at the end:
//   - no accepted enqueue is ever lost (processed == accepted eventually);
//   - when WaitDrained returns under a pause, nothing is queued and no
//     task is mid-flight in a worker (the drain-before-flush guarantee —
//     an index update may never straddle the flush).

#include "core/auq.h"

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "auq_test_util.h"

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

namespace diffindex {
namespace {

TEST(AuqFlushStressTest, ConcurrentEnqueueVsPauseDrainCycles) {
  constexpr int kProducers = 4;
  constexpr int kTasksPerProducer = 400;
  constexpr int kFlushCycles = 25;

  std::atomic<uint64_t> accepted{0};
  std::atomic<uint64_t> processed{0};
  std::atomic<int> mid_flight{0};
  std::atomic<bool> overlap_seen{false};

  AuqOptions options;
  options.worker_threads = 3;
  options.max_depth = 16;  // small: backpressure paths get exercised too
  AsyncUpdateQueue auq(options, PerTask([&](const IndexTask&) {
    mid_flight.fetch_add(1, std::memory_order_acq_rel);
    // A sliver of real work so drains regularly race with execution.
    std::this_thread::sleep_for(std::chrono::microseconds(50));
    mid_flight.fetch_sub(1, std::memory_order_acq_rel);
    processed.fetch_add(1, std::memory_order_acq_rel);
    return Status::OK();
  }));

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; p++) {
    producers.emplace_back([&auq, &accepted, p] {
      for (int i = 0; i < kTasksPerProducer; i++) {
        IndexTask task;
        task.base_table = "t";
        task.row = "p" + std::to_string(p) + "-" + std::to_string(i);
        task.ts = TimestampOracle::NowMicros();
        ASSERT_TRUE(auq.Enqueue(std::move(task)));  // never shut down here
        accepted.fetch_add(1, std::memory_order_acq_rel);
      }
    });
  }

  std::thread flusher([&] {
    for (int cycle = 0; cycle < kFlushCycles; cycle++) {
      auq.Pause();
      auq.WaitDrained();
      // The flush-coordination contract, observed mid-race: with the
      // intake paused and the drain returned, the queue is empty and no
      // worker holds a task. (Accepted-vs-processed equality is only
      // checked after the producers join — a producer may be preempted
      // between Enqueue returning and its own bookkeeping.)
      if (mid_flight.load(std::memory_order_acquire) != 0) {
        overlap_seen.store(true);
      }
      EXPECT_EQ(auq.depth(), 0u) << "cycle " << cycle;
      auq.Resume();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  for (auto& producer : producers) producer.join();
  flusher.join();

  EXPECT_FALSE(overlap_seen.load()) << "a task was mid-flight at drain";

  // Every accepted task is eventually processed, pause cycles included.
  auq.WaitDrained();
  EXPECT_EQ(accepted.load(), uint64_t{kProducers} * kTasksPerProducer);
  EXPECT_EQ(processed.load(), accepted.load());
  EXPECT_EQ(auq.processed(), accepted.load());
  EXPECT_EQ(auq.depth(), 0u);
}

TEST(AuqFlushStressTest, DrainSoundUnderRetries) {
  // Same protocol with a flaky processor: retried tasks stay part of the
  // pending set, so a drain that returns while a retry is backing off
  // would be a correctness bug.
  std::atomic<uint64_t> processed{0};
  std::atomic<uint64_t> attempts{0};
  AuqOptions options;
  options.worker_threads = 2;
  options.retry_backoff_ms = 1;
  AsyncUpdateQueue auq(options, PerTask([&](const IndexTask&) {
    if (attempts.fetch_add(1) % 3 == 0) {
      return Status::Unavailable("transient");
    }
    processed.fetch_add(1, std::memory_order_acq_rel);
    return Status::OK();
  }));

  constexpr uint64_t kTasks = 200;
  std::thread producer([&] {
    for (uint64_t i = 0; i < kTasks; i++) {
      IndexTask task;
      task.base_table = "t";
      task.row = "r" + std::to_string(i);
      task.ts = TimestampOracle::NowMicros();
      ASSERT_TRUE(auq.Enqueue(std::move(task)));
    }
  });

  for (int cycle = 0; cycle < 10; cycle++) {
    auq.Pause();
    auq.WaitDrained();
    EXPECT_EQ(auq.depth(), 0u) << "cycle " << cycle;
    auq.Resume();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  producer.join();
  auq.WaitDrained();
  EXPECT_EQ(processed.load(), kTasks);
  EXPECT_EQ(auq.processed(), kTasks);
}

// ---- Batched drain (coalescing) variants ----

// The batched hot path must uphold the same two invariants: nothing is
// lost to coalescing (every absorbed task is accounted for in processed
// counts) and a drain never returns mid-batch.
TEST(AuqFlushStressTest, BatchedDrainCoalescesWithoutLosingTasks) {
  obs::MetricsRegistry metrics;
  AuqOptions options;
  options.worker_threads = 2;
  options.drain_batch_size = 8;
  options.metrics = &metrics;

  std::atomic<uint64_t> delivered{0};  // survivors handed to the batch
  AsyncUpdateQueue auq(options, [&](const std::vector<IndexTask>& tasks,
                                    std::vector<Status>* out) {
    delivered.fetch_add(tasks.size(), std::memory_order_acq_rel);
    out->assign(tasks.size(), Status::OK());
  });

  // A tiny key space so batches regularly carry same-(index, row)
  // duplicates that must coalesce.
  constexpr int kProducers = 4;
  constexpr int kTasksPerProducer = 500;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; p++) {
    producers.emplace_back([&auq, p] {
      for (int i = 0; i < kTasksPerProducer; i++) {
        IndexTask task;
        task.base_table = "t";
        task.row = "r" + std::to_string((p * 7 + i) % 6);
        task.index.name = "by_title";
        task.ts = TimestampOracle::NowMicros();
        task.old_ts = task.ts;
        ASSERT_TRUE(auq.Enqueue(std::move(task)));
      }
    });
  }
  for (auto& producer : producers) producer.join();
  auq.WaitDrained();

  constexpr uint64_t kAccepted = uint64_t{kProducers} * kTasksPerProducer;
  // processed() counts coalesced-away tasks too — nothing lost.
  EXPECT_EQ(auq.processed(), kAccepted);
  EXPECT_EQ(auq.depth(), 0u);
  const uint64_t coalesced = metrics.GetCounter("auq.coalesced")->value();
  EXPECT_GT(coalesced, 0u) << "6 rows x 2000 tasks never coalesced";
  EXPECT_EQ(delivered.load() + coalesced, kAccepted);
  EXPECT_GT(metrics.GetHistogram("auq.batch_size")->Count(), 0u);
}

TEST(AuqFlushStressTest, BatchedConcurrentEnqueueVsPauseDrainCycles) {
  constexpr int kProducers = 4;
  constexpr int kTasksPerProducer = 400;
  constexpr int kFlushCycles = 25;

  std::atomic<uint64_t> accepted{0};
  std::atomic<int> mid_flight{0};
  std::atomic<bool> overlap_seen{false};

  AuqOptions options;
  options.worker_threads = 3;
  options.drain_batch_size = 4;
  options.max_depth = 16;
  AsyncUpdateQueue auq(options, [&](const std::vector<IndexTask>& tasks,
                                    std::vector<Status>* out) {
    mid_flight.fetch_add(1, std::memory_order_acq_rel);
    std::this_thread::sleep_for(std::chrono::microseconds(80));
    mid_flight.fetch_sub(1, std::memory_order_acq_rel);
    out->assign(tasks.size(), Status::OK());
  });

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; p++) {
    producers.emplace_back([&auq, &accepted, p] {
      for (int i = 0; i < kTasksPerProducer; i++) {
        IndexTask task;
        task.base_table = "t";
        task.row = "p" + std::to_string(p) + "-" + std::to_string(i % 10);
        task.ts = TimestampOracle::NowMicros();
        task.old_ts = task.ts;
        ASSERT_TRUE(auq.Enqueue(std::move(task)));
        accepted.fetch_add(1, std::memory_order_acq_rel);
      }
    });
  }

  std::thread flusher([&] {
    for (int cycle = 0; cycle < kFlushCycles; cycle++) {
      auq.Pause();
      auq.WaitDrained();
      // WaitDrained must observe in-flight BATCHES: a batch popped before
      // the pause may not be abandoned mid-delivery.
      if (mid_flight.load(std::memory_order_acquire) != 0) {
        overlap_seen.store(true);
      }
      EXPECT_EQ(auq.depth(), 0u) << "cycle " << cycle;
      auq.Resume();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  for (auto& producer : producers) producer.join();
  flusher.join();
  EXPECT_FALSE(overlap_seen.load()) << "a batch was mid-flight at drain";

  auq.WaitDrained();
  EXPECT_EQ(accepted.load(), uint64_t{kProducers} * kTasksPerProducer);
  EXPECT_EQ(auq.processed(), accepted.load());
  EXPECT_EQ(auq.depth(), 0u);
}

TEST(AuqFlushStressTest, BatchedDrainSoundUnderRetries) {
  // A failed batch re-queues its coalesced survivors; drains must keep
  // counting them (and their absorbed tasks) as pending until delivered.
  std::atomic<uint64_t> batches{0};
  AuqOptions options;
  options.worker_threads = 2;
  options.drain_batch_size = 8;
  options.retry_backoff_ms = 1;
  AsyncUpdateQueue auq(options, [&](const std::vector<IndexTask>& tasks,
                                    std::vector<Status>* out) {
    if (batches.fetch_add(1) % 3 == 0) {
      out->assign(tasks.size(), Status::Unavailable("transient"));
      return;
    }
    out->assign(tasks.size(), Status::OK());
  });

  constexpr uint64_t kTasks = 300;
  std::thread producer([&] {
    for (uint64_t i = 0; i < kTasks; i++) {
      IndexTask task;
      task.base_table = "t";
      task.row = "r" + std::to_string(i % 12);
      task.ts = TimestampOracle::NowMicros();
      task.old_ts = task.ts;
      ASSERT_TRUE(auq.Enqueue(std::move(task)));
    }
  });

  for (int cycle = 0; cycle < 10; cycle++) {
    auq.Pause();
    auq.WaitDrained();
    EXPECT_EQ(auq.depth(), 0u) << "cycle " << cycle;
    auq.Resume();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  producer.join();
  auq.WaitDrained();
  EXPECT_EQ(auq.processed(), kTasks);
  EXPECT_EQ(auq.depth(), 0u);
}

}  // namespace
}  // namespace diffindex
