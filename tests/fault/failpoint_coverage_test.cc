// Arms the failpoints that model infrastructure faults no other suite
// exercises by name — region.open, wal.replay, auq.enqueue — and checks
// each one's documented failure mode end to end. Keeping every consulted
// point armed somewhere is enforced by the analyzer's
// failpoint-reachability rule.

#include <gtest/gtest.h>

#include <atomic>

#include "cluster/cluster.h"
#include "core/auq.h"
#include "fault/failpoint.h"
#include "../core/auq_test_util.h"

namespace diffindex {
namespace {

class FailpointCoverageTest : public ::testing::Test {
 protected:
  void TearDown() override {
    fault::FailpointRegistry::Global()->DisarmAll();
  }
};

// "region.open" fails the region bring-up itself: a table create that
// needs a new region surfaces the injected error instead of publishing a
// half-opened layout, and the next attempt (point disarmed) succeeds.
TEST_F(FailpointCoverageTest, RegionOpenFailureSurfacesOnCreateTable) {
  ClusterOptions options;
  options.num_servers = 1;
  options.regions_per_table = 2;
  std::unique_ptr<Cluster> cluster;
  ASSERT_TRUE(Cluster::Create(options, &cluster).ok());
  ASSERT_TRUE(cluster->master()->CreateTable("healthy").ok());

  fault::FailpointRegistry::Global()->Arm(
      "region.open", fault::FailpointPolicy::ErrorOnce(
                         Status::IOError("injected region.open fault")));
  Status s = cluster->master()->CreateTable("wounded");
  EXPECT_FALSE(s.ok());

  fault::FailpointRegistry::Global()->Disarm("region.open");
  EXPECT_TRUE(cluster->master()->CreateTable("recovered").ok());
}

// "wal.replay" fails log-splitting during failover. A transient fault
// is retried on another attempt and self-heals, so the injection must
// be persistent (every hit) to prove the failure mode: the master
// exhausts recovery_open_attempts, reports the failure (first_failure
// propagates, the failed-region counter moves) and publishes nothing
// unreplayed.
TEST_F(FailpointCoverageTest, WalReplayFailureFailsRecoveryOfThatRegion) {
  ClusterOptions options;
  options.num_servers = 2;
  options.regions_per_table = 2;
  std::unique_ptr<Cluster> cluster;
  ASSERT_TRUE(Cluster::Create(options, &cluster).ok());
  ASSERT_TRUE(cluster->master()->CreateTable("t").ok());
  auto client = cluster->NewClient();
  ASSERT_TRUE(client->RefreshLayout().ok());
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(client
                    ->PutColumn("t", "row-" + std::to_string(i), "c", "v")
                    .ok());
  }

  const uint64_t failed_before =
      cluster->metrics()->GetCounter("recovery.failed")->value();
  ASSERT_TRUE(cluster->SilentlyCrashServer(1).ok());
  fault::FailpointRegistry::Global()->Arm(
      "wal.replay", fault::FailpointPolicy::ErrorEveryNth(
                        1, Status::IOError("injected wal.replay fault")));
  Status dead = cluster->master()->OnServerDead(1);
  EXPECT_FALSE(dead.ok());
  EXPECT_GT(cluster->metrics()->GetCounter("recovery.failed")->value(),
            failed_before);
}

// "auq.enqueue" models task loss between ack and queue insertion: the
// producer is told true, but nothing lands and nothing is processed.
// (This is the invariant break the chaos oracle exists to catch, which
// is why the chaos table deliberately never arms it.)
TEST_F(FailpointCoverageTest, AuqEnqueueLossAcksWithoutLanding) {
  std::atomic<int> processed{0};
  AuqOptions options;
  AsyncUpdateQueue auq(options, PerTask([&](const IndexTask&) {
    processed++;
    return Status::OK();
  }));
  IndexTask task;
  task.base_table = "t";
  task.row = "row";
  task.ts = TimestampOracle::NowMicros();

  fault::FailpointRegistry::Global()->Arm(
      "auq.enqueue", fault::FailpointPolicy::ErrorEveryNth(1));
  EXPECT_TRUE(auq.Enqueue(task));  // acked...
  auq.WaitDrained();
  EXPECT_EQ(auq.depth(), 0u);      // ...but never landed
  EXPECT_EQ(processed.load(), 0);

  fault::FailpointRegistry::Global()->Disarm("auq.enqueue");
  EXPECT_TRUE(auq.Enqueue(task));
  auq.WaitDrained();
  EXPECT_EQ(processed.load(), 1);
  auq.Shutdown();
}

}  // namespace
}  // namespace diffindex
