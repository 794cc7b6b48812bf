// Torn WAL tails, produced by FaultEnv short writes on the real append
// path (not hand-edited files): the reader must recover every complete
// record and flag only the tear; recovery must replay exactly the intact
// prefix; and a region server whose append tore must roll to a fresh WAL
// so later acked edits never land behind the tear.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <unistd.h>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/region_server.h"
#include "fault/fault_env.h"
#include "lsm/wal.h"
#include "util/env.h"

namespace diffindex {
namespace {

class WalTornTailTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "wal_torn_" +
           std::to_string(getpid()) + "_" +
           std::to_string(reinterpret_cast<uintptr_t>(this) & 0xffff);
    ASSERT_TRUE(Env::Default()->CreateDirIfMissing(dir_).ok());
  }
  void TearDown() override {
    (void)Env::Default()->RemoveDirRecursively(dir_);
  }
  std::string dir_;
};

// Record framing is [crc:4][len:4][payload]; an 8-byte payload makes each
// record 16 bytes, so byte budgets can target exact tear positions.
constexpr uint64_t kRecordBytes = 16;

std::string Payload(int i) {
  char buf[16];
  snprintf(buf, sizeof(buf), "record-%01d", i);
  return buf;
}

void WriteTornLog(const std::string& path, int full_records,
                  uint64_t extra_bytes) {
  fault::FaultEnv env(Env::Default());
  fault::FaultEnv::Rule rule;
  rule.path_substring = ".log";
  rule.kind = fault::FaultEnv::Rule::Kind::kShortWrite;
  rule.byte_budget = full_records * kRecordBytes + extra_bytes;
  env.AddRule(rule);

  std::unique_ptr<wal::Writer> writer;
  ASSERT_TRUE(
      wal::Writer::Open(&env, path, wal::SyncMode::kNone, &writer).ok());
  for (int i = 0; i < full_records; i++) {
    ASSERT_TRUE(writer->AddRecord(Payload(i)).ok());
  }
  // The crossing record: its prefix lands, the append reports failure —
  // exactly what a crash mid-write leaves behind.
  EXPECT_FALSE(writer->AddRecord(Payload(full_records)).ok());
  (void)writer->Close();
}

void ExpectRecovers(const std::string& path, int expect_records,
                    bool expect_corruption) {
  std::unique_ptr<wal::Reader> reader;
  ASSERT_TRUE(wal::Reader::Open(Env::Default(), path, &reader).ok());
  std::string payload;
  int got = 0;
  while (reader->ReadRecord(&payload)) {
    EXPECT_EQ(payload, Payload(got));
    got++;
  }
  EXPECT_EQ(got, expect_records);
  EXPECT_EQ(reader->corruption(), expect_corruption);
}

TEST_F(WalTornTailTest, TornBodyRecoversCompletePrefix) {
  const std::string path = dir_ + "/torn_body.log";
  WriteTornLog(path, 3, /*extra_bytes=*/8 + 2);  // header + 2 body bytes
  ExpectRecovers(path, 3, /*expect_corruption=*/true);
}

TEST_F(WalTornTailTest, TornHeaderRecoversCompletePrefix) {
  const std::string path = dir_ + "/torn_header.log";
  WriteTornLog(path, 3, /*extra_bytes=*/3);  // partial header only
  ExpectRecovers(path, 3, /*expect_corruption=*/true);
}

TEST_F(WalTornTailTest, CleanLogReportsNoCorruption) {
  const std::string path = dir_ + "/clean.log";
  std::unique_ptr<wal::Writer> writer;
  ASSERT_TRUE(wal::Writer::Open(Env::Default(), path, wal::SyncMode::kNone,
                                &writer)
                  .ok());
  for (int i = 0; i < 3; i++) ASSERT_TRUE(writer->AddRecord(Payload(i)).ok());
  ASSERT_TRUE(writer->Close().ok());
  ExpectRecovers(path, 3, /*expect_corruption=*/false);
}

// Region-level recovery over a torn log: the intact prefix is replayed and
// re-enqueued into index maintenance (Section 5.3 requirement (2)); the
// torn suffix is discarded.
TEST_F(WalTornTailTest, RecoveryReplaysIntactPrefixAndReenqueues) {
  struct RecordingHooks final : public IndexMaintenanceHooks {
    std::vector<std::string> replayed;
    Status PostApply(const PutRequest&, Timestamp) override {
      return Status::OK();
    }
    void PreFlush(const std::string&) override {}
    void PostFlush(const std::string&) override {}
    void OnWalReplay(const PutRequest& put, Timestamp) override {
      replayed.push_back(put.row);
    }
    void OnRegionOpened(const std::string&, uint64_t) override {}
    uint64_t QueueDepth() const override { return 0; }
  };

  // A "dead server's" WAL with 4 edits for region t/r1, the 4th torn: its
  // append fails partway through the record body.
  const std::string wal_path = dir_ + "/dead_server.log";
  {
    fault::FaultEnv env(Env::Default());
    std::unique_ptr<wal::Writer> writer;
    ASSERT_TRUE(
        wal::Writer::Open(&env, wal_path, wal::SyncMode::kNone, &writer)
            .ok());
    uint64_t intact_bytes = 0;
    for (int i = 1; i <= 4; i++) {
      WalEdit edit;
      edit.table = "t";
      edit.region_id = 1;
      edit.seq = i;
      edit.row = "row-" + std::to_string(i);
      edit.cells = {Cell{"c", "value-" + std::to_string(i), false}};
      edit.ts = 100 + i;
      std::string payload;
      edit.EncodeTo(&payload);
      if (i == 4) {
        fault::FaultEnv::Rule rule;
        rule.kind = fault::FaultEnv::Rule::Kind::kShortWrite;
        rule.byte_budget = intact_bytes + 8 + payload.size() / 2;
        env.AddRule(rule);
        EXPECT_FALSE(writer->AddRecord(payload).ok());
      } else {
        ASSERT_TRUE(writer->AddRecord(payload).ok());
        intact_bytes += 8 + payload.size();
      }
    }
    (void)writer->Close();
  }

  LatencyModel latency;
  Fabric fabric(&latency);
  RegionServerOptions options;
  RecordingHooks hooks;
  RegionServer server(7, dir_, &fabric, options);
  server.SetHooks(&hooks);
  ASSERT_TRUE(server.Start().ok());

  RegionInfoWire info;
  info.table = "t";
  info.region_id = 1;
  info.start_row = "";
  info.end_row = "";
  info.server_id = 7;
  ASSERT_TRUE(server.OpenRegionWithRecovery(info, {wal_path}).ok());

  EXPECT_EQ(hooks.replayed,
            (std::vector<std::string>{"row-1", "row-2", "row-3"}));
  ASSERT_TRUE(server.Stop().ok());
}

// End-to-end: a torn append inside a live cluster fails the put, the
// server rolls to a fresh WAL, and a subsequent crash + recovery restores
// every ACKED write while the torn (never-acked) record stays dead.
TEST_F(WalTornTailTest, TornAppendRollsWalAndAckedWritesSurviveCrash) {
  fault::FaultEnv fenv(Env::Default());
  ClusterOptions copt;
  copt.num_servers = 2;
  copt.regions_per_table = 2;
  copt.auq.retry_backoff_ms = 1;
  copt.client.retry_backoff_ms = 1;
  copt.client.retry_backoff_max_ms = 8;
  copt.env = &fenv;
  std::unique_ptr<Cluster> cluster;
  ASSERT_TRUE(Cluster::Create(copt, &cluster).ok());
  ASSERT_TRUE(cluster->master()->CreateTable("t").ok());
  auto client = cluster->NewClient();
  ASSERT_TRUE(client->RefreshLayout().ok());

  fault::FaultEnv::Rule rule;
  rule.path_substring = ".log";
  rule.kind = fault::FaultEnv::Rule::Kind::kShortWrite;
  rule.byte_budget = 256;
  fenv.AddRule(rule);

  std::set<std::string> acked;
  std::string torn_row;
  for (int i = 0; i < 100 && torn_row.empty(); i++) {
    const std::string row = "row-" + std::to_string(i);
    Status s = client->PutColumn("t", row, "c", "v");
    if (s.ok()) {
      acked.insert(row);
    } else {
      torn_row = row;  // the append tore; this put was never acked
    }
  }
  ASSERT_FALSE(torn_row.empty()) << "short-write rule never triggered";
  fenv.ClearRules();

  // The server rolled its WAL on the failed append: new writes land on a
  // fresh file, past the tear.
  const std::string after_roll = "zz-after-roll";
  ASSERT_TRUE(client->PutColumn("t", after_roll, "c", "v").ok());
  acked.insert(after_roll);

  RegionInfoWire info;
  ASSERT_TRUE(client->RouteRow("t", torn_row, &info).ok());
  ASSERT_TRUE(cluster->KillServer(info.server_id).ok());
  ASSERT_TRUE(client->RefreshLayout().ok());

  for (const std::string& row : acked) {
    std::string value;
    ASSERT_TRUE(client->GetCell("t", row, "c", kMaxTimestamp, &value).ok())
        << "acked write to " << row << " lost after crash recovery";
    EXPECT_EQ(value, "v");
  }
  std::string value;
  EXPECT_TRUE(client->GetCell("t", torn_row, "c", kMaxTimestamp, &value).IsNotFound())
      << "torn (never-acked) record resurrected by recovery";
}

}  // namespace
}  // namespace diffindex
