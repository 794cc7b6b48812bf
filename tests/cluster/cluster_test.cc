// Integration tests of the simulated cluster substrate: routing, CRUD
// across regions, scans, layout refresh, WAL-based crash recovery and
// region reassignment.

#include "cluster/cluster.h"

#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "util/random.h"

namespace diffindex {
namespace {

class ClusterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterOptions options;
    options.num_servers = 3;
    options.regions_per_table = 6;
    options.server.lsm.memtable_flush_bytes = 64 << 10;
    ASSERT_TRUE(Cluster::Create(options, &cluster_).ok());
    client_ = cluster_->NewClient();
  }

  std::unique_ptr<Cluster> cluster_;
  std::shared_ptr<Client> client_;
};

TEST_F(ClusterTest, CreateTableAssignsRegionsAcrossServers) {
  ASSERT_TRUE(cluster_->master()->CreateTable("items").ok());
  auto regions = cluster_->master()->regions();
  ASSERT_EQ(regions.size(), 6u);
  std::set<uint32_t> owners;
  for (const auto& region : regions) owners.insert(region.server_id);
  EXPECT_EQ(owners.size(), 3u);  // round-robin across all three servers
  // Ranges tile the keyspace.
  EXPECT_EQ(regions.front().start_row, "");
  EXPECT_EQ(regions.back().end_row, "");
}

TEST_F(ClusterTest, PutGetAcrossRegions) {
  ASSERT_TRUE(cluster_->master()->CreateTable("items").ok());
  // Keys spread over the whole hex keyspace (hit every region).
  for (int i = 0; i < 64; i++) {
    char row[16];
    snprintf(row, sizeof(row), "%02x-row", i * 4);
    ASSERT_TRUE(
        client_->PutColumn("items", row, "title", "t" + std::to_string(i))
            .ok());
  }
  for (int i = 0; i < 64; i++) {
    char row[16];
    snprintf(row, sizeof(row), "%02x-row", i * 4);
    std::string value;
    ASSERT_TRUE(
        client_->GetCell("items", row, "title", kMaxTimestamp, &value).ok());
    EXPECT_EQ(value, "t" + std::to_string(i));
  }
}

TEST_F(ClusterTest, GetMissingIsNotFound) {
  ASSERT_TRUE(cluster_->master()->CreateTable("items").ok());
  std::string value;
  EXPECT_TRUE(client_->GetCell("items", "nope", "c", kMaxTimestamp, &value)
                  .IsNotFound());
}

TEST_F(ClusterTest, MultiColumnRow) {
  ASSERT_TRUE(cluster_->master()->CreateTable("items").ok());
  ASSERT_TRUE(client_
                  ->Put("items", "aa-row",
                        {Cell{"title", "widget", false},
                         Cell{"price", "99", false},
                         Cell{"stock", "5", false}})
                  .ok());
  RowResult row;
  ASSERT_TRUE(client_->GetRow("items", "aa-row", kMaxTimestamp, &row).ok());
  ASSERT_TRUE(row.found);
  EXPECT_EQ(row.cells.size(), 3u);
}

TEST_F(ClusterTest, DeleteColumnsRemovesCells) {
  ASSERT_TRUE(cluster_->master()->CreateTable("items").ok());
  ASSERT_TRUE(client_
                  ->Put("items", "aa-row",
                        {Cell{"title", "widget", false},
                         Cell{"price", "99", false}})
                  .ok());
  ASSERT_TRUE(client_->DeleteColumns("items", "aa-row", {"price"}).ok());
  std::string value;
  EXPECT_TRUE(
      client_->GetCell("items", "aa-row", "price", kMaxTimestamp, &value)
          .IsNotFound());
  EXPECT_TRUE(
      client_->GetCell("items", "aa-row", "title", kMaxTimestamp, &value)
          .ok());
}

TEST_F(ClusterTest, ScanSpansRegionBoundaries) {
  ASSERT_TRUE(cluster_->master()->CreateTable("items").ok());
  std::vector<std::string> keys;
  for (int i = 0; i < 48; i++) {
    char row[16];
    snprintf(row, sizeof(row), "%02x-k", i * 5);
    keys.push_back(row);
    ASSERT_TRUE(client_->PutColumn("items", row, "c", "v").ok());
  }
  std::sort(keys.begin(), keys.end());

  std::vector<ScannedRow> rows;
  ASSERT_TRUE(
      client_->ScanRows("items", "", "", kMaxTimestamp, 0, &rows).ok());
  ASSERT_EQ(rows.size(), keys.size());
  for (size_t i = 0; i < keys.size(); i++) {
    EXPECT_EQ(rows[i].row, keys[i]);  // globally sorted across regions
  }
}

TEST_F(ClusterTest, ScanWithLimitStopsEarly) {
  ASSERT_TRUE(cluster_->master()->CreateTable("items").ok());
  for (int i = 0; i < 40; i++) {
    char row[16];
    snprintf(row, sizeof(row), "%02x-k", i * 6);
    ASSERT_TRUE(client_->PutColumn("items", row, "c", "v").ok());
  }
  std::vector<ScannedRow> rows;
  ASSERT_TRUE(
      client_->ScanRows("items", "", "", kMaxTimestamp, 7, &rows).ok());
  EXPECT_EQ(rows.size(), 7u);
}

TEST_F(ClusterTest, RejectsRowWithCellSeparator) {
  ASSERT_TRUE(cluster_->master()->CreateTable("items").ok());
  Status s = client_->PutColumn("items", std::string("bad\0row", 7), "c", "v");
  EXPECT_TRUE(s.IsInvalidArgument());
}

TEST_F(ClusterTest, UpdatesAreVersioned) {
  ASSERT_TRUE(cluster_->master()->CreateTable("items").ok());
  ASSERT_TRUE(client_->PutColumn("items", "aa", "c", "v1").ok());
  PutResponse resp;
  ASSERT_TRUE(client_
                  ->Put("items", "aa", {Cell{"c", "v2", false}}, 0,
                        /*return_old_values=*/true, &resp)
                  .ok());
  ASSERT_EQ(resp.old_values.size(), 1u);
  EXPECT_TRUE(resp.old_values[0].found);
  EXPECT_EQ(resp.old_values[0].value, "v1");
  EXPECT_GT(resp.assigned_ts, resp.old_values[0].ts);

  std::string value;
  ASSERT_TRUE(
      client_->GetCell("items", "aa", "c", kMaxTimestamp, &value).ok());
  EXPECT_EQ(value, "v2");
  // Historical read sees v1.
  ASSERT_TRUE(client_
                  ->GetCell("items", "aa", "c", resp.assigned_ts - 1, &value)
                  .ok());
  EXPECT_EQ(value, "v1");
}

TEST_F(ClusterTest, DataSurvivesMemtableFlush) {
  ASSERT_TRUE(cluster_->master()->CreateTable("items").ok());
  Random rng(5);
  for (int i = 0; i < 300; i++) {
    char row[20];
    snprintf(row, sizeof(row), "%02x-%d", (i * 7) % 256, i);
    ASSERT_TRUE(
        client_->PutColumn("items", row, "c", rng.RandomBytes(400)).ok());
  }
  ASSERT_TRUE(client_->FlushTable("items").ok());
  std::string value;
  ASSERT_TRUE(
      client_->GetCell("items", "00-0", "c", kMaxTimestamp, &value).ok());
}

TEST_F(ClusterTest, KillServerRecoversDataFromWal) {
  ASSERT_TRUE(cluster_->master()->CreateTable("items").ok());
  std::vector<std::pair<std::string, std::string>> expected;
  for (int i = 0; i < 128; i++) {
    char row[16];
    snprintf(row, sizeof(row), "%02x-r%d", (i * 2) % 256, i);
    const std::string value = "v" + std::to_string(i);
    ASSERT_TRUE(client_->PutColumn("items", row, "c", value).ok());
    expected.emplace_back(row, value);
  }
  // No flush: everything lives in memtables + WAL. Kill one server.
  ASSERT_TRUE(cluster_->KillServer(2).ok());

  for (const auto& [row, value] : expected) {
    std::string got;
    Status s = client_->GetCell("items", row, "c", kMaxTimestamp, &got);
    ASSERT_TRUE(s.ok()) << row << ": " << s.ToString();
    EXPECT_EQ(got, value) << row;
  }
}

TEST_F(ClusterTest, KillServerAfterFlushStillServes) {
  ASSERT_TRUE(cluster_->master()->CreateTable("items").ok());
  for (int i = 0; i < 64; i++) {
    char row[16];
    snprintf(row, sizeof(row), "%02x-r", i * 4);
    ASSERT_TRUE(client_->PutColumn("items", row, "c", "flushed").ok());
  }
  ASSERT_TRUE(client_->FlushTable("items").ok());
  // More puts after the flush (these live only in WAL + memtable).
  for (int i = 0; i < 64; i++) {
    char row[16];
    snprintf(row, sizeof(row), "%02x-post", i * 4);
    ASSERT_TRUE(client_->PutColumn("items", row, "c", "post-flush").ok());
  }
  ASSERT_TRUE(cluster_->KillServer(1).ok());

  std::string value;
  for (int i = 0; i < 64; i++) {
    char row[16];
    snprintf(row, sizeof(row), "%02x-r", i * 4);
    ASSERT_TRUE(
        client_->GetCell("items", row, "c", kMaxTimestamp, &value).ok())
        << row;
    EXPECT_EQ(value, "flushed");
    snprintf(row, sizeof(row), "%02x-post", i * 4);
    ASSERT_TRUE(
        client_->GetCell("items", row, "c", kMaxTimestamp, &value).ok())
        << row;
    EXPECT_EQ(value, "post-flush");
  }
}

TEST_F(ClusterTest, SequentialDoubleFailure) {
  ASSERT_TRUE(cluster_->master()->CreateTable("items").ok());
  for (int i = 0; i < 96; i++) {
    char row[16];
    snprintf(row, sizeof(row), "%02x-r%d", (i * 3) % 256, i);
    ASSERT_TRUE(client_->PutColumn("items", row, "c", "v").ok());
  }
  ASSERT_TRUE(cluster_->KillServer(1).ok());
  // Write more after the first failure.
  for (int i = 0; i < 32; i++) {
    char row[16];
    snprintf(row, sizeof(row), "%02x-x%d", (i * 8) % 256, i);
    ASSERT_TRUE(client_->PutColumn("items", row, "c", "v2").ok());
  }
  ASSERT_TRUE(cluster_->KillServer(2).ok());

  // Everything still readable from the lone survivor.
  std::string value;
  for (int i = 0; i < 96; i++) {
    char row[16];
    snprintf(row, sizeof(row), "%02x-r%d", (i * 3) % 256, i);
    ASSERT_TRUE(
        client_->GetCell("items", row, "c", kMaxTimestamp, &value).ok())
        << row;
  }
  for (int i = 0; i < 32; i++) {
    char row[16];
    snprintf(row, sizeof(row), "%02x-x%d", (i * 8) % 256, i);
    ASSERT_TRUE(
        client_->GetCell("items", row, "c", kMaxTimestamp, &value).ok())
        << row;
  }
}

TEST_F(ClusterTest, AddServerJoinsAssignmentPool) {
  ASSERT_TRUE(cluster_->AddServer(9).ok());
  ASSERT_TRUE(cluster_->master()->CreateTable("items").ok());
  std::set<uint32_t> owners;
  for (const auto& region : cluster_->master()->regions()) {
    owners.insert(region.server_id);
  }
  EXPECT_TRUE(owners.count(9) > 0);
}

TEST_F(ClusterTest, ConcurrentClientsNoLostWrites) {
  ASSERT_TRUE(cluster_->master()->CreateTable("items").ok());
  constexpr int kThreads = 8, kPerThread = 100;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([this, t] {
      auto client = cluster_->NewClient();
      for (int i = 0; i < kPerThread; i++) {
        char row[24];
        snprintf(row, sizeof(row), "%02x-t%d-i%d", (i * 11 + t) % 256, t, i);
        ASSERT_TRUE(client->PutColumn("items", row, "c",
                                      std::to_string(t * 1000 + i))
                        .ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int t = 0; t < kThreads; t++) {
    for (int i = 0; i < kPerThread; i++) {
      char row[24];
      snprintf(row, sizeof(row), "%02x-t%d-i%d", (i * 11 + t) % 256, t, i);
      std::string value;
      ASSERT_TRUE(
          client_->GetCell("items", row, "c", kMaxTimestamp, &value).ok())
          << row;
      EXPECT_EQ(value, std::to_string(t * 1000 + i));
    }
  }
}

TEST_F(ClusterTest, WalFilesGcAfterFlush) {
  ASSERT_TRUE(cluster_->master()->CreateTable("items").ok());
  RegionServer* server = cluster_->server(1);
  ASSERT_NE(server, nullptr);
  Random rng(6);
  // Enough data to roll the WAL (roll threshold is 8 MB by default; use a
  // smaller workload against the flush/GC path instead).
  for (int i = 0; i < 200; i++) {
    char row[16];
    snprintf(row, sizeof(row), "%02x-g%d", (i * 13) % 256, i);
    ASSERT_TRUE(
        client_->PutColumn("items", row, "c", rng.RandomBytes(256)).ok());
  }
  ASSERT_TRUE(client_->FlushTable("items").ok());
  // After a full flush every closed WAL file is GC-able; only the open
  // tail remains.
  std::vector<std::string> wal_files;
  ASSERT_TRUE(
      Env::Default()->GetChildren(server->wal_dir(), &wal_files).ok());
  EXPECT_LE(wal_files.size(), 2u);
}

}  // namespace
}  // namespace diffindex
