// Crash-mid-batch chaos: the "auq.process" failpoint crashes a server while
// a coalesced batch is in flight. Replay must re-enqueue the covered base
// puts from the WAL, and the index must converge with no lost entry (a
// coalesced-away task whose effect vanished) and no phantom entry (an
// intermediate value the batch half-delivered and nobody retracts).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <set>
#include <string>
#include <thread>

#include "cluster/cluster.h"
#include "core/index_codec.h"
#include "fault/failpoint.h"
#include "util/random.h"

namespace diffindex {
namespace {

std::string ValueName(int v) { return "v" + std::to_string(v); }

class AuqBatchCrashChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterOptions options;
    options.num_servers = 3;
    options.regions_per_table = 6;
    options.auq.drain_batch_size = 8;
    options.auq.retry_backoff_ms = 1;
    options.client.retry_backoff_ms = 1;
    options.client.retry_backoff_max_ms = 8;
    ASSERT_TRUE(Cluster::Create(options, &cluster_).ok());
    client_ = cluster_->NewDiffIndexClient();

    ASSERT_TRUE(cluster_->master()->CreateTable("t").ok());
    IndexDescriptor index;
    index.name = "by_c";
    index.column = "c";
    index.scheme = IndexScheme::kAsyncSimple;
    ASSERT_TRUE(cluster_->master()->CreateIndex("t", index).ok());
    ASSERT_TRUE(client_->raw_client()->RefreshLayout().ok());
  }

  void WaitForQuiescence() {
    for (int i = 0; i < 5000; i++) {
      bool all_empty = true;
      for (NodeId id : cluster_->server_ids()) {
        if (cluster_->index_manager(id)->QueueDepth() > 0) {
          all_empty = false;
          break;
        }
      }
      if (all_empty) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    FAIL() << "AUQ did not drain";
  }

  std::set<std::string> RawIndexRows(const std::string& value) {
    IndexDescriptor index;
    EXPECT_TRUE(client_->FindIndex("t", "by_c", &index).ok());
    std::vector<ScannedRow> rows;
    EXPECT_TRUE(client_->raw_client()
                    ->ScanRows(index.index_table,
                               IndexScanStartForValue(value),
                               IndexScanEndForValue(value), kMaxTimestamp, 0,
                               &rows)
                    .ok());
    std::set<std::string> result;
    for (const auto& row : rows) {
      std::string value_encoded, base_row;
      if (DecodeIndexRow(row.row, &value_encoded, &base_row)) {
        result.insert(base_row);
      }
    }
    return result;
  }

  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<DiffIndexClient> client_;
};

TEST_F(AuqBatchCrashChaosTest, CrashMidBatchLosesNothingGainsNothing) {
  const uint64_t seed = 0xBA7C4A54ULL;
  fault::ScopedFailpointCleanup cleanup;

  // The handler runs ON the APS worker that hit the point; it only
  // requests the crash, the test thread executes it (killing the server
  // from inside its own worker would deadlock the shutdown).
  std::atomic<int> crash_requests{0};
  auto* failpoints = fault::FailpointRegistry::Global();
  failpoints->SetCrashHandler(
      [&crash_requests](const std::string&) { crash_requests.fetch_add(1); });

  Random rng(static_cast<uint32_t>(seed));
  std::map<std::string, std::string> model;  // row -> current value
  auto do_op = [&](int i) {
    char buf[16];
    const uint32_t r = rng.Uniform(12);  // small: batches coalesce heavily
    snprintf(buf, sizeof(buf), "%02x-r%u", (r * 37) % 256, r);
    const std::string row = buf;
    if (model.count(row) && rng.OneIn(6)) {
      ASSERT_TRUE(client_->DeleteColumns("t", row, {"c"}).ok()) << "op " << i;
      model.erase(row);
    } else {
      const std::string value = ValueName(rng.Uniform(5));
      ASSERT_TRUE(client_->PutColumn("t", row, "c", value).ok()) << "op " << i;
      model[row] = value;
    }
  };

  // Phase 1: build up state and let some of it deliver cleanly.
  for (int i = 0; i < 60; i++) do_op(i);

  // Phase 2: every batch delivery "crashes the server" (and fails the
  // batch). Keep writing underneath so batches are actually in flight.
  failpoints->Arm("auq.process", fault::FailpointPolicy::Crash(1.0, seed));
  for (int i = 0; i < 40; i++) do_op(1000 + i);
  for (int i = 0; i < 2000 && crash_requests.load() == 0; i++) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GT(crash_requests.load(), 0) << "no batch was ever in flight";
  failpoints->Disarm("auq.process");
  failpoints->SetCrashHandler(nullptr);

  // Execute one crash: the victim's queued + in-flight batches die with
  // it; recovery replays its WAL and re-enqueues every replayed put.
  std::vector<NodeId> ids = cluster_->server_ids();
  ASSERT_TRUE(cluster_->KillServer(ids[seed % ids.size()]).ok());

  // Phase 3: a little post-crash traffic, then converge.
  for (int i = 0; i < 20; i++) do_op(2000 + i);
  WaitForQuiescence();

  // Ground truth from the model: no lost entries, no phantoms.
  std::map<std::string, std::set<std::string>> truth;
  for (const auto& [row, value] : model) truth[value].insert(row);
  for (int v = 0; v < 5; v++) {
    const std::string value = ValueName(v);
    EXPECT_EQ(RawIndexRows(value), truth[value]) << "value " << value;
  }
}

}  // namespace
}  // namespace diffindex
