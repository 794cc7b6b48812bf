// Compaction off the flush gate: a region server's compactor merges a
// region's disk stores on its own thread while puts, point reads and row
// scans on the region go on, and a region that is split, moved or whose
// server is killed mid-merge leaves nothing written by the old owner once
// the operation returns. The merge is held open by tests/lsm/hold_env.h;
// puts flush on the test thread (small memtables), so only the merge is
// held.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <thread>

#include "../lsm/hold_env.h"
#include "cluster/cluster.h"

namespace diffindex {
namespace {

class BackgroundCompactionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterOptions options;
    options.num_servers = 2;
    options.regions_per_table = 1;
    options.server.lsm.compaction_trigger = 3;
    options.server.lsm.memtable_flush_bytes = 2048;
    options.env = &env_;
    ASSERT_TRUE(Cluster::Create(options, &cluster_).ok());
    ASSERT_TRUE(cluster_->master()->CreateTable("t").ok());
    client_ = cluster_->NewClient();
    ASSERT_TRUE(client_->RefreshLayout().ok());
  }

  void TearDown() override {
    env_.Release();
    client_.reset();
    cluster_.reset();
  }

  static std::string Row(int i) {
    char row[16];
    snprintf(row, sizeof(row), "r%03d", i);
    return row;
  }
  static std::string Value(int i, int version) {
    return std::string(200, static_cast<char>('a' + i % 26)) + "-" +
           std::to_string(i) + "-" + std::to_string(version);
  }

  void Put(int i, int version) {
    ASSERT_TRUE(client_->PutColumn("t", Row(i), "c", Value(i, version)).ok())
        << Row(i);
    latest_[i] = version;
  }

  // Writes rows until a put's flush has handed a merge to the compactor
  // and the merge is held with its output built.
  void HoldACompaction() {
    env_.Arm();
    for (int n = 0; n < 400 && !env_.WaitHeld(std::chrono::milliseconds(1));
         n++) {
      Put(n % 100, n / 100);
    }
    ASSERT_TRUE(env_.WaitHeld());
    EXPECT_GE(Gauge("lsm.compaction.pending"), 1);
  }

  void ExpectEveryRowReads() {
    ASSERT_TRUE(client_->RefreshLayout().ok());
    for (const auto& [i, version] : latest_) {
      std::string value;
      Status s = client_->GetCell("t", Row(i), "c", kMaxTimestamp, &value);
      ASSERT_TRUE(s.ok()) << Row(i) << ": " << s.ToString();
      EXPECT_EQ(value, Value(i, version)) << Row(i);
    }
    std::vector<ScannedRow> rows;
    ASSERT_TRUE(client_->ScanRows("t", "", "", kMaxTimestamp, 0, &rows).ok());
    EXPECT_EQ(rows.size(), latest_.size());
  }

  RegionInfoWire RegionOf(const std::string& row) {
    RegionInfoWire info;
    EXPECT_TRUE(client_->RefreshLayout().ok());
    EXPECT_TRUE(client_->RouteRow("t", row, &info).ok());
    return info;
  }

  std::string DirOf(uint64_t region_id) {
    return Region::DataDir(cluster_->data_root(), "t", region_id);
  }

  int64_t Gauge(const char* name) {
    return cluster_->metrics()->GetGauge(name)->value();
  }

  // name -> size of every file in `dir` (empty if the directory is gone).
  static std::map<std::string, uintmax_t> Listing(const std::string& dir) {
    std::map<std::string, uintmax_t> files;
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
      if (entry.is_regular_file()) {
        files[entry.path().filename().string()] = entry.file_size();
      }
    }
    return files;
  }

  // Every SSTable in `dir` is one its manifest names: no merge output was
  // left behind uncollected.
  static void ExpectOnlyListedTables(const std::string& dir) {
    std::ifstream manifest(dir + "/TABLES");
    std::stringstream text;
    text << manifest.rdbuf();
    std::set<uint64_t> listed;
    std::istringstream in(text.str());
    for (std::string token; in >> token;) {
      uint64_t number;
      if (token == "file" && in >> number) listed.insert(number);
    }
    for (const auto& [name, size] : Listing(dir)) {
      if (name.size() > 4 && name.substr(name.size() - 4) == ".sst") {
        EXPECT_EQ(listed.count(std::stoull(name)), 1u) << dir << "/" << name;
      }
    }
  }

  // Runs `op` on another thread and releases the held merge while it runs
  // (50 ms after `released_when` holds), so the operation meets the merge
  // in flight.
  Status RunBesideHeldMerge(const std::function<Status()>& op,
                            const std::function<bool()>& released_when) {
    Status result;
    std::thread worker([&] { result = op(); });
    for (int i = 0; i < 5000 && !released_when(); i++) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    env_.Release();
    worker.join();
    return result;
  }

  HoldingEnv env_;
  std::unique_ptr<Cluster> cluster_;
  std::shared_ptr<Client> client_;
  std::map<int, int> latest_;  // row -> version last acked
};

TEST_F(BackgroundCompactionTest, PutsAndReadsCompleteWhileTheRegionCompacts) {
  HoldACompaction();
  // The merge holds no region lock: puts (and their flushes), point reads
  // and row scans of the region complete while it is held.
  for (int i = 0; i < 60; i++) Put(i, 100);
  ExpectEveryRowReads();
  EXPECT_GE(Gauge("lsm.compaction.pending"), 1);

  env_.Release();
  // An admin flush returns once the merges it triggered have ended.
  ASSERT_TRUE(client_->FlushTable("t").ok());
  EXPECT_EQ(Gauge("lsm.compaction.pending"), 0);
  EXPECT_GE(cluster_->metrics()->GetCounter("lsm.compaction")->value(), 1u);
  ExpectEveryRowReads();
  ExpectOnlyListedTables(DirOf(RegionOf(Row(0)).region_id));
}

TEST_F(BackgroundCompactionTest, SplitMidMergeLeavesNothingInTheRetiredDirectory) {
  HoldACompaction();
  const RegionInfoWire parent = RegionOf(Row(0));
  const std::string parent_dir = DirOf(parent.region_id);
  Status s = RunBesideHeldMerge(
      [&] {
        return cluster_->master()->SplitRegion("t", parent.region_id,
                                               Row(50));
      },
      [] { return true; });
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_FALSE(std::filesystem::exists(parent_dir));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(std::filesystem::exists(parent_dir));
  ExpectEveryRowReads();
}

TEST_F(BackgroundCompactionTest, MoveMidMergeWritesNothingAfterItReturns) {
  HoldACompaction();
  const RegionInfoWire region = RegionOf(Row(0));
  NodeId target = 0;
  for (NodeId id : cluster_->server_ids()) {
    if (id != region.server_id) target = id;
  }
  Status s = RunBesideHeldMerge(
      [&] {
        return cluster_->master()->MoveRegion("t", region.region_id, target);
      },
      [] { return true; });
  ASSERT_TRUE(s.ok()) << s.ToString();
  const std::string dir = DirOf(region.region_id);
  const auto after_move = Listing(dir);
  ExpectOnlyListedTables(dir);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(Listing(dir), after_move);
  EXPECT_EQ(RegionOf(Row(0)).server_id, target);
  ExpectEveryRowReads();
}

TEST_F(BackgroundCompactionTest, KillMidMergeRecoversTheRegion) {
  HoldACompaction();
  const RegionInfoWire region = RegionOf(Row(0));
  Status s = RunBesideHeldMerge(
      [&] { return cluster_->KillServer(region.server_id); },
      [&] { return cluster_->fabric()->IsNodeDown(region.server_id); });
  ASSERT_TRUE(s.ok()) << s.ToString();
  const std::string dir = DirOf(region.region_id);
  const auto after_kill = Listing(dir);
  // The survivor's open collected whatever the dead merge left behind.
  ExpectOnlyListedTables(dir);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(Listing(dir), after_kill);
  EXPECT_NE(RegionOf(Row(0)).server_id, region.server_id);
  ExpectEveryRowReads();
}

}  // namespace
}  // namespace diffindex
