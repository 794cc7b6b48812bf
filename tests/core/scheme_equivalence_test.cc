// Differential scheme-equivalence suite: the same seeded workload (puts,
// updates, deletes, same-value overwrites, occasional flushes) must leave
// the index in an identical final state under all four maintenance
// schemes, with the batched hot path (AUQ coalescing drain + WAL group
// commit) both off and on. Sync-insert leaves stale entries by design, so
// its state is compared after a read-repair sweep; async schemes are
// compared after the AUQ quiesces. Any divergence — a lost entry, a
// phantom entry, a coalesced-away delete — shows up as a set difference
// keyed by (value, base row).

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "core/index_codec.h"
#include "util/random.h"

namespace diffindex {
namespace {

constexpr int kNumValues = 8;
constexpr int kKeySpace = 24;
constexpr int kOpsPerRun = 120;

std::string ValueName(int v) { return "v" + std::to_string(v); }

std::string RowName(Random* rng) {
  char buf[24];
  const uint32_t r = rng->Uniform(kKeySpace);
  snprintf(buf, sizeof(buf), "%02x-r%u", (r * 37) % 256, r);
  return buf;
}

// The final index state: value -> set of base rows whose encoded index
// rows exist in the index table. Row keys are deterministic functions of
// (value, base row), so set equality here is byte-identical row-key
// equality of the raw index table.
using IndexState = std::map<std::string, std::set<std::string>>;

struct RunConfig {
  IndexScheme scheme;
  bool batched;  // drain_batch_size > 1 + WAL group commit
};

IndexState RunWorkload(const RunConfig& config, uint64_t seed) {
  ClusterOptions options;
  options.num_servers = 3;
  options.regions_per_table = 4;
  if (config.batched) {
    options.auq.drain_batch_size = 8;
    options.server.wal_sync = wal::SyncMode::kGroupCommit;
    options.server.wal_group_window_micros = 50;
  }
  std::unique_ptr<Cluster> cluster;
  EXPECT_TRUE(Cluster::Create(options, &cluster).ok());
  auto client = cluster->NewDiffIndexClient();

  EXPECT_TRUE(cluster->master()->CreateTable("items").ok());
  IndexDescriptor index;
  index.name = "by_title";
  index.column = "title";
  index.scheme = config.scheme;
  EXPECT_TRUE(cluster->master()->CreateIndex("items", index).ok());
  EXPECT_TRUE(client->raw_client()->RefreshLayout().ok());

  // The op sequence depends only on the seed — every configuration
  // replays the exact same (row, value, op) trace.
  Random rng(static_cast<uint32_t>(seed));
  std::map<std::string, std::string> model;  // row -> current value
  for (int i = 0; i < kOpsPerRun; i++) {
    const std::string row = RowName(&rng);
    const uint32_t dice = rng.Uniform(10);
    if (model.count(row) && dice < 2) {
      EXPECT_TRUE(client->DeleteColumns("items", row, {"title"}).ok());
      model.erase(row);
    } else if (model.count(row) && dice < 4) {
      // Same-value overwrite: the δ edge case of Section 4.3.
      EXPECT_TRUE(
          client->PutColumn("items", row, "title", model[row]).ok());
    } else {
      const std::string value = ValueName(rng.Uniform(kNumValues));
      EXPECT_TRUE(client->PutColumn("items", row, "title", value).ok());
      model[row] = value;
    }
    if (rng.OneIn(40)) {
      EXPECT_TRUE(client->raw_client()->FlushTable("items").ok());
    }
  }

  // Async schemes: wait for the AUQ/APS to deliver everything.
  for (int i = 0; i < 5000; i++) {
    bool all_empty = true;
    for (NodeId id : cluster->server_ids()) {
      if (cluster->index_manager(id)->QueueDepth() > 0) {
        all_empty = false;
        break;
      }
    }
    if (all_empty) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Sync-insert never deletes inline; a read sweep over every value
  // triggers the lazy repair that removes stale entries. Harmless for the
  // other schemes.
  for (int v = 0; v < kNumValues; v++) {
    std::vector<IndexHit> hits;
    EXPECT_TRUE(
        client->GetByIndex("items", "by_title", ValueName(v), &hits).ok());
  }

  // Raw scan of the index table — no repair, no filtering.
  IndexState state;
  for (int v = 0; v < kNumValues; v++) {
    const std::string value = ValueName(v);
    IndexDescriptor found;
    EXPECT_TRUE(
        client->FindIndex("items", "by_title", &found).ok());
    std::vector<ScannedRow> rows;
    EXPECT_TRUE(client->raw_client()
                    ->ScanRows(found.index_table,
                               IndexScanStartForValue(value),
                               IndexScanEndForValue(value), kMaxTimestamp,
                               0, &rows)
                    .ok());
    for (const auto& row : rows) {
      std::string value_encoded, base_row;
      if (DecodeIndexRow(row.row, &value_encoded, &base_row)) {
        state[value].insert(base_row);
      }
    }
  }

  // Cross-check against the model: equivalence between schemes is not
  // enough if they are all wrong the same way.
  IndexState truth;
  for (const auto& [row, value] : model) truth[value].insert(row);
  for (int v = 0; v < kNumValues; v++) {
    const std::string value = ValueName(v);
    EXPECT_EQ(state[value], truth[value])
        << "scheme " << IndexSchemeName(config.scheme)
        << (config.batched ? " batched" : " unbatched") << " seed " << seed
        << " value " << value;
  }
  return state;
}

class SchemeEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(SchemeEquivalenceTest, AllSchemesConvergeToIdenticalIndexState) {
  const uint64_t seed = 0xEC0DE500ULL + static_cast<uint64_t>(GetParam());
  const IndexScheme schemes[] = {
      IndexScheme::kSyncFull, IndexScheme::kSyncInsert,
      IndexScheme::kAsyncSimple, IndexScheme::kAsyncSession};

  // Reference: sync-full, classic one-task path.
  const IndexState reference =
      RunWorkload({IndexScheme::kSyncFull, /*batched=*/false}, seed);

  for (IndexScheme scheme : schemes) {
    for (bool batched : {false, true}) {
      if (scheme == IndexScheme::kSyncFull && !batched) continue;
      const IndexState got = RunWorkload({scheme, batched}, seed);
      EXPECT_EQ(got, reference)
          << "scheme " << IndexSchemeName(scheme)
          << (batched ? " batched" : " unbatched") << " diverged, seed "
          << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchemeEquivalenceTest,
                         ::testing::Range(0, 8));

}  // namespace
}  // namespace diffindex
