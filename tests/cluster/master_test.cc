// Master-specific tests: DDL validation, split points, layout epochs,
// catalog distribution, and heartbeat-based failure detection.

#include "cluster/master.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "cluster/cluster.h"

namespace diffindex {
namespace {

TEST(MasterSplitsTest, UniformHexSplitsTileTheKeyspace) {
  auto splits = Master::UniformHexSplits(8);
  ASSERT_EQ(splits.size(), 7u);
  EXPECT_EQ(splits.front(), "20");
  EXPECT_EQ(splits.back(), "e0");
  for (size_t i = 1; i < splits.size(); i++) {
    EXPECT_LT(splits[i - 1], splits[i]);
  }
}

TEST(MasterSplitsTest, SingleRegionHasNoSplits) {
  EXPECT_TRUE(Master::UniformHexSplits(1).empty());
}

class MasterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterOptions options;
    options.num_servers = 2;
    options.regions_per_table = 4;
    ASSERT_TRUE(Cluster::Create(options, &cluster_).ok());
  }
  std::unique_ptr<Cluster> cluster_;
};

TEST_F(MasterTest, DuplicateTableRejected) {
  ASSERT_TRUE(cluster_->master()->CreateTable("t").ok());
  EXPECT_TRUE(cluster_->master()->CreateTable("t").IsInvalidArgument());
}

TEST_F(MasterTest, IndexOnMissingTableRejected) {
  IndexDescriptor index;
  index.name = "i";
  index.column = "c";
  EXPECT_TRUE(cluster_->master()->CreateIndex("nope", index).IsNotFound());
}

TEST_F(MasterTest, DuplicateIndexRejected) {
  ASSERT_TRUE(cluster_->master()->CreateTable("t").ok());
  IndexDescriptor index;
  index.name = "i";
  index.column = "c";
  ASSERT_TRUE(cluster_->master()->CreateIndex("t", index).ok());
  EXPECT_FALSE(cluster_->master()->CreateIndex("t", index).ok());
}

TEST_F(MasterTest, CreateIndexMakesPartitionedIndexTable) {
  ASSERT_TRUE(cluster_->master()->CreateTable("t").ok());
  IndexDescriptor index;
  index.name = "by_c";
  index.column = "c";
  ASSERT_TRUE(cluster_->master()->CreateIndex("t", index).ok());

  // The backing index table exists, is flagged, and is itself split into
  // regions across the cluster (global index).
  int index_regions = 0;
  for (const auto& region : cluster_->master()->regions()) {
    if (region.table == IndexTableNameFor("t", "by_c")) index_regions++;
  }
  EXPECT_EQ(index_regions, 4);

  auto client = cluster_->NewClient();
  CatalogSnapshot catalog = client->catalog();
  const TableDescriptor* base = catalog.GetTable("t");
  ASSERT_NE(base, nullptr);
  ASSERT_EQ(base->indexes.size(), 1u);
  EXPECT_EQ(base->indexes[0].index_table, "__idx_t_by_c");
  const TableDescriptor* idx_table = catalog.GetTable("__idx_t_by_c");
  ASSERT_NE(idx_table, nullptr);
  EXPECT_TRUE(idx_table->is_index_table);
}

TEST_F(MasterTest, DropIndexRemovesFromCatalog) {
  ASSERT_TRUE(cluster_->master()->CreateTable("t").ok());
  IndexDescriptor index;
  index.name = "by_c";
  index.column = "c";
  ASSERT_TRUE(cluster_->master()->CreateIndex("t", index).ok());
  ASSERT_TRUE(cluster_->master()->DropIndex("t", "by_c").ok());
  auto client = cluster_->NewClient();
  CatalogSnapshot catalog = client->catalog();
  EXPECT_TRUE(catalog.GetTable("t")->indexes.empty());
}

TEST_F(MasterTest, LayoutEpochAdvancesOnDdl) {
  const uint64_t e0 = cluster_->master()->layout_epoch();
  ASSERT_TRUE(cluster_->master()->CreateTable("t").ok());
  const uint64_t e1 = cluster_->master()->layout_epoch();
  EXPECT_GT(e1, e0);
  IndexDescriptor index;
  index.name = "i";
  index.column = "c";
  ASSERT_TRUE(cluster_->master()->CreateIndex("t", index).ok());
  EXPECT_GT(cluster_->master()->layout_epoch(), e1);
}

TEST_F(MasterTest, CatalogPushedToServers) {
  ASSERT_TRUE(cluster_->master()->CreateTable("t").ok());
  IndexDescriptor index;
  index.name = "i";
  index.column = "c";
  ASSERT_TRUE(cluster_->master()->CreateIndex("t", index).ok());
  for (NodeId id : cluster_->server_ids()) {
    const auto snapshot = cluster_->server(id)->catalog();
    const TableDescriptor* table = snapshot->GetTable("t");
    ASSERT_NE(table, nullptr);
    EXPECT_EQ(table->indexes.size(), 1u);
  }
}

TEST_F(MasterTest, CreateTableWithExplicitSplits) {
  ASSERT_TRUE(
      cluster_->master()->CreateTable("custom", {"m"}).ok());
  int regions = 0;
  for (const auto& region : cluster_->master()->regions()) {
    if (region.table == "custom") regions++;
  }
  EXPECT_EQ(regions, 2);
}

TEST(MasterFailureDetectorTest, HeartbeatTimeoutTriggersRecovery) {
  ClusterOptions options;
  options.num_servers = 3;
  options.regions_per_table = 3;
  options.server.heartbeat_interval_ms = 10;
  options.master.failure_detect_ms = 120;
  std::unique_ptr<Cluster> cluster;
  ASSERT_TRUE(Cluster::Create(options, &cluster).ok());
  ASSERT_TRUE(cluster->master()->CreateTable("t").ok());

  auto client = cluster->NewClient();
  for (int i = 0; i < 30; i++) {
    char row[16];
    snprintf(row, sizeof(row), "%02x-%d", (i * 9) % 256, i);
    ASSERT_TRUE(client->PutColumn("t", row, "c", "v").ok());
  }

  // Silent crash: the master is NOT told; its detector must notice the
  // missed heartbeats, declare the server dead, and recover its regions.
  ASSERT_TRUE(cluster->SilentlyCrashServer(2).ok());

  bool recovered = false;
  for (int attempt = 0; attempt < 100 && !recovered; attempt++) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    recovered = true;
    for (const auto& region : cluster->master()->regions()) {
      if (region.server_id == 2) recovered = false;
    }
  }
  ASSERT_TRUE(recovered) << "detector never reassigned the regions";

  // All data served again.
  (void)client->RefreshLayout();
  for (int i = 0; i < 30; i++) {
    char row[16];
    snprintf(row, sizeof(row), "%02x-%d", (i * 9) % 256, i);
    std::string value;
    EXPECT_TRUE(client->GetCell("t", row, "c", kMaxTimestamp, &value).ok())
        << row;
  }
}

}  // namespace
}  // namespace diffindex
