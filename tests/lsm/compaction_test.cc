// Focused compaction tests: garbage-collection policy (masked versions,
// version cap, tombstone dropping), idempotent-duplicate collapsing, and
// the accounting in CompactionStats.

#include "lsm/compaction.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include "lsm/memtable.h"
#include "util/env.h"

namespace diffindex {
namespace {

class CompactionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "compaction_test_" +
           std::to_string(getpid()) + "_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    (void)Env::Default()->RemoveDirRecursively(dir_);
    ASSERT_TRUE(Env::Default()->CreateDirIfMissing(dir_).ok());
    options_.block_size = 512;
  }

  void TearDown() override {
    (void)Env::Default()->RemoveDirRecursively(dir_);
  }

  std::string Path(int n) {
    return dir_ + "/" + std::to_string(n) + ".sst";
  }

  std::shared_ptr<SstReader> BuildTable(const MemTable& mem, int file_num) {
    auto iter = mem.NewIterator();
    SstMeta meta;
    EXPECT_TRUE(BuildSstFromIterator(options_, Path(file_num), file_num,
                                     iter.get(), &meta)
                    .ok());
    std::shared_ptr<SstReader> reader;
    EXPECT_TRUE(
        SstReader::Open(options_, Path(file_num), file_num, &reader).ok());
    return reader;
  }

  std::shared_ptr<SstReader> Compact(
      const std::vector<std::shared_ptr<SstReader>>& inputs,
      bool drop_tombstones, CompactionStats* stats) {
    SstMeta meta;
    EXPECT_TRUE(CompactTables(options_, inputs, Path(99), 99,
                              drop_tombstones, &meta, stats)
                    .ok());
    std::shared_ptr<SstReader> reader;
    EXPECT_TRUE(SstReader::Open(options_, Path(99), 99, &reader).ok());
    return reader;
  }

  LsmOptions options_;
  std::string dir_;
};

TEST_F(CompactionTest, MergesVersionsAcrossTables) {
  MemTable old_mem, new_mem;
  old_mem.Add("k", 10, ValueType::kPut, "v10");
  new_mem.Add("k", 20, ValueType::kPut, "v20");
  auto old_table = BuildTable(old_mem, 1);
  auto new_table = BuildTable(new_mem, 2);

  CompactionStats stats;
  // Inputs youngest first.
  auto merged = Compact({new_table, old_table}, true, &stats);
  EXPECT_EQ(stats.input_records, 2u);
  EXPECT_EQ(stats.output_records, 2u);
  EXPECT_EQ(merged->Get("k", kMaxTimestamp).value, "v20");
  EXPECT_EQ(merged->Get("k", 15).value, "v10");
}

TEST_F(CompactionTest, DropsVersionsBeyondMax) {
  options_.max_versions = 2;
  MemTable mem;
  for (Timestamp ts = 1; ts <= 5; ts++) {
    mem.Add("k", ts, ValueType::kPut, "v" + std::to_string(ts));
  }
  auto table = BuildTable(mem, 1);
  CompactionStats stats;
  auto merged = Compact({table}, true, &stats);
  EXPECT_EQ(stats.dropped_versions, 3u);
  EXPECT_EQ(merged->meta().num_entries, 2u);
  EXPECT_EQ(merged->Get("k", kMaxTimestamp).value, "v5");
  EXPECT_EQ(merged->Get("k", 4).value, "v4");
  EXPECT_EQ(merged->Get("k", 3).state, LookupState::kNotPresent);
}

TEST_F(CompactionTest, TombstoneMasksOlderVersions) {
  MemTable mem;
  mem.Add("k", 10, ValueType::kPut, "v10");
  mem.Add("k", 20, ValueType::kTombstone, "");
  mem.Add("k", 30, ValueType::kPut, "v30");
  auto table = BuildTable(mem, 1);

  CompactionStats stats;
  auto merged = Compact({table}, /*drop_tombstones=*/true, &stats);
  EXPECT_EQ(stats.dropped_masked, 1u);      // v10
  EXPECT_EQ(stats.dropped_tombstones, 1u);  // the marker itself
  EXPECT_EQ(merged->meta().num_entries, 1u);
  EXPECT_EQ(merged->Get("k", kMaxTimestamp).value, "v30");
}

TEST_F(CompactionTest, TombstoneRetainedWhenNotMajor) {
  MemTable mem;
  mem.Add("k", 20, ValueType::kTombstone, "");
  auto table = BuildTable(mem, 1);
  CompactionStats stats;
  auto merged = Compact({table}, /*drop_tombstones=*/false, &stats);
  // The marker survives so it can still mask data in older stores that
  // were not part of this compaction.
  EXPECT_EQ(merged->meta().num_entries, 1u);
  EXPECT_EQ(merged->Get("k", kMaxTimestamp).state, LookupState::kDeleted);
}

TEST_F(CompactionTest, IdempotentDuplicatesCollapse) {
  // Recovery can deliver the same (key, ts) record to two different
  // stores; compaction must emit it once.
  MemTable a, b;
  a.Add("k", 10, ValueType::kPut, "v");
  b.Add("k", 10, ValueType::kPut, "v");
  auto table_a = BuildTable(a, 1);
  auto table_b = BuildTable(b, 2);
  CompactionStats stats;
  auto merged = Compact({table_a, table_b}, true, &stats);
  EXPECT_EQ(merged->meta().num_entries, 1u);
}

TEST_F(CompactionTest, ManyKeysSurviveIntact) {
  MemTable a, b;
  for (int i = 0; i < 500; i++) {
    const std::string key = "key" + std::to_string(i);
    a.Add(key, 1, ValueType::kPut, "old" + std::to_string(i));
    if (i % 3 == 0) {
      b.Add(key, 2, ValueType::kPut, "new" + std::to_string(i));
    }
  }
  auto older = BuildTable(a, 1);
  auto newer = BuildTable(b, 2);
  CompactionStats stats;
  auto merged = Compact({newer, older}, true, &stats);
  for (int i = 0; i < 500; i += 17) {
    const std::string key = "key" + std::to_string(i);
    LookupResult r = merged->Get(key, kMaxTimestamp);
    ASSERT_EQ(r.state, LookupState::kFound) << key;
    EXPECT_EQ(r.value, (i % 3 == 0 ? "new" : "old") + std::to_string(i));
  }
}

TEST_F(CompactionTest, TombstonePerKeyIndependence) {
  // A tombstone on one key must not mask its neighbors.
  MemTable mem;
  mem.Add("a", 10, ValueType::kPut, "va");
  mem.Add("b", 20, ValueType::kTombstone, "");
  mem.Add("c", 5, ValueType::kPut, "vc");
  auto table = BuildTable(mem, 1);
  CompactionStats stats;
  auto merged = Compact({table}, true, &stats);
  EXPECT_EQ(merged->Get("a", kMaxTimestamp).value, "va");
  EXPECT_EQ(merged->Get("c", kMaxTimestamp).value, "vc");
  EXPECT_EQ(merged->Get("b", kMaxTimestamp).state,
            LookupState::kNotPresent);
}

}  // namespace
}  // namespace diffindex
