// Batched reads of the LsmTree: MultiGet against per-key Get and ScanRows
// against a per-row Scan, on trees whose rows sit in the memtable, in
// several SSTs, across block boundaries and under newer tombstones.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <unistd.h>

#include "lsm/lsm_tree.h"
#include "util/random.h"

namespace diffindex {
namespace {

std::string Cell(const std::string& row, const std::string& column) {
  return row + kRowSeparator + column;
}

struct ReadCell {
  std::string key;
  std::string value;
  Timestamp ts;
  bool operator==(const ReadCell& o) const {
    return key == o.key && value == o.value && ts == o.ts;
  }
};

class LsmTreeRowReadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "row_read_test_" +
           std::to_string(getpid()) + "_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    (void)Env::Default()->RemoveDirRecursively(dir_);
    options_.memtable_flush_bytes = 1 << 30;  // flushes are explicit
    options_.block_size = 256;
    options_.block_cache = std::make_shared<BlockCache>(1 << 20);
    options_.compaction_trigger = 100;
    options_.metrics = &metrics_;
    ASSERT_TRUE(LsmTree::Open(options_, dir_, &tree_).ok());
  }

  void TearDown() override {
    tree_.reset();
    (void)Env::Default()->RemoveDirRecursively(dir_);
  }

  // ScanRows of `rows`, one cell list per row.
  Status ReadRows(const std::vector<std::string>& rows, Timestamp read_ts,
                  std::vector<std::vector<ReadCell>>* out) {
    std::vector<Slice> slices(rows.begin(), rows.end());
    out->assign(rows.size(), {});
    return tree_->ScanRows(
        slices, read_ts,
        [out](size_t i, const Slice& key, const Slice& value, Timestamp ts) {
          (*out)[i].push_back(ReadCell{key.ToString(), value.ToString(), ts});
        });
  }

  // The same row through the plain range scan.
  std::vector<ReadCell> ScanRow(const std::string& row, Timestamp read_ts) {
    std::vector<LsmTree::ScanEntry> entries;
    std::string start = row + kRowSeparator;
    std::string end = row + '\x01';
    EXPECT_TRUE(tree_->Scan(start, end, read_ts, 0, &entries).ok());
    std::vector<ReadCell> cells;
    for (auto& e : entries) cells.push_back(ReadCell{e.key, e.value, e.ts});
    return cells;
  }

  uint64_t Counter(const std::string& name) {
    return metrics_.GetCounter(name)->value();
  }

  obs::MetricsRegistry metrics_;
  LsmOptions options_;
  std::string dir_;
  std::unique_ptr<LsmTree> tree_;
};

TEST_F(LsmTreeRowReadTest, RowStraddlingBlocksReadsWhole) {
  // One row of 40 columns with 30-byte values spans many 256-byte blocks.
  for (int c = 0; c < 40; c++) {
    ASSERT_TRUE(tree_->Put(Cell("wide", "c" + std::to_string(100 + c)),
                           std::string(30, static_cast<char>('a' + c % 26)),
                           1)
                    .ok());
  }
  ASSERT_TRUE(tree_->Put(Cell("after", "x"), "v", 1).ok());
  ASSERT_TRUE(tree_->Flush().ok());

  std::vector<std::vector<ReadCell>> rows;
  ASSERT_TRUE(ReadRows({"wide"}, kMaxTimestamp, &rows).ok());
  ASSERT_EQ(rows[0].size(), 40u);
  EXPECT_EQ(rows[0], ScanRow("wide", kMaxTimestamp));
  EXPECT_GT(Counter("lsm.sst_seeks.row"), 1u);  // it did cross blocks
  EXPECT_EQ(Counter("lsm.row_reads"), 1u);
}

TEST_F(LsmTreeRowReadTest, MemtableOnlyRowAndAbsentRow) {
  ASSERT_TRUE(tree_->Put(Cell("disk", "a"), "d", 1).ok());
  ASSERT_TRUE(tree_->Flush().ok());
  ASSERT_TRUE(tree_->Put(Cell("mem", "a"), "m1", 2).ok());
  ASSERT_TRUE(tree_->Put(Cell("mem", "b"), "m2", 3).ok());

  std::vector<std::vector<ReadCell>> rows;
  ASSERT_TRUE(ReadRows({"disk", "mem", "nope"}, kMaxTimestamp, &rows).ok());
  EXPECT_EQ(rows[0], (std::vector<ReadCell>{{Cell("disk", "a"), "d", 1}}));
  EXPECT_EQ(rows[1], (std::vector<ReadCell>{{Cell("mem", "a"), "m1", 2},
                                            {Cell("mem", "b"), "m2", 3}}));
  EXPECT_TRUE(rows[2].empty());
}

TEST_F(LsmTreeRowReadTest, TombstoneInNewerSstHidesOlderCell) {
  ASSERT_TRUE(tree_->Put(Cell("r", "a"), "old", 1).ok());
  ASSERT_TRUE(tree_->Put(Cell("r", "b"), "keep", 1).ok());
  ASSERT_TRUE(tree_->Flush().ok());
  // The newer SST holds nothing of the row but a tombstone: its filter
  // must admit the row, or the deleted cell would come back.
  ASSERT_TRUE(tree_->Delete(Cell("r", "a"), 2).ok());
  ASSERT_TRUE(tree_->Flush().ok());
  ASSERT_EQ(tree_->NumDiskStores(), 2);

  std::vector<std::vector<ReadCell>> rows;
  ASSERT_TRUE(ReadRows({"r"}, kMaxTimestamp, &rows).ok());
  EXPECT_EQ(rows[0], (std::vector<ReadCell>{{Cell("r", "b"), "keep", 1}}));
  std::string value;
  EXPECT_TRUE(tree_->Get(Cell("r", "a"), kMaxTimestamp, &value).IsNotFound());
  // Before the delete, the cell is still visible.
  ASSERT_TRUE(ReadRows({"r"}, 1, &rows).ok());
  EXPECT_EQ(rows[0].size(), 2u);
}

TEST_F(LsmTreeRowReadTest, UnsortedAndDuplicateRowsMatchPerRowScan) {
  for (int r = 0; r < 30; r++) {
    for (int c = 0; c < 3; c++) {
      ASSERT_TRUE(tree_->Put(Cell("row" + std::to_string(r),
                                  "c" + std::to_string(c)),
                             "v" + std::to_string(r * 10 + c), 1 + r)
                      .ok());
    }
    if (r % 10 == 9) {
      ASSERT_TRUE(tree_->Flush().ok());
    }
  }
  const std::vector<std::string> request = {"row7", "row21", "row7", "row3",
                                            "row29", "absent", "row21"};
  std::vector<std::vector<ReadCell>> rows;
  ASSERT_TRUE(ReadRows(request, kMaxTimestamp, &rows).ok());
  for (size_t i = 0; i < request.size(); i++) {
    EXPECT_EQ(rows[i], ScanRow(request[i], kMaxTimestamp)) << request[i];
  }
}

TEST_F(LsmTreeRowReadTest, FilterSkipsSstsWithoutTheRow) {
  // Ten SSTs over one key range, each holding every tenth row.
  for (int sst = 0; sst < 10; sst++) {
    for (int r = sst; r < 200; r += 10) {
      char row[16];
      snprintf(row, sizeof(row), "row%04d", r);
      ASSERT_TRUE(tree_->Put(Cell(row, "c"), "v", 1 + sst).ok());
    }
    ASSERT_TRUE(tree_->Flush().ok());
  }
  std::vector<std::string> request;
  for (int r = 0; r < 200; r++) {
    char row[16];
    snprintf(row, sizeof(row), "row%04d", r);
    request.push_back(row);
  }
  std::vector<std::vector<ReadCell>> rows;
  ASSERT_TRUE(ReadRows(request, kMaxTimestamp, &rows).ok());
  for (const auto& cells : rows) EXPECT_EQ(cells.size(), 1u);
  // Without the filter every row would seek all ten SSTs; with it, about
  // one block per row (a sorted batch shares blocks, bloom false
  // positives add a few).
  EXPECT_LT(Counter("lsm.sst_seeks.row"), 2 * request.size());
}

// Randomized: MultiGet equals per-key Get and ScanRows equals the
// per-row scan, at the newest and at historical timestamps, on trees with
// versions, tombstones, several SSTs and a live memtable.
TEST_F(LsmTreeRowReadTest, RandomizedBatchesMatchSingleReads) {
  Random rng(2024);
  Timestamp ts = 1;
  for (int round = 0; round < 6; round++) {
    for (int op = 0; op < 150; op++) {
      const std::string row = "r" + std::to_string(rng.Uniform(40));
      const std::string key = Cell(row, "c" + std::to_string(rng.Uniform(4)));
      if (rng.OneIn(5)) {
        ASSERT_TRUE(tree_->Delete(key, ts++).ok());
      } else {
        ASSERT_TRUE(
            tree_->Put(key, "v" + std::to_string(rng.Uniform(1000)), ts++)
                .ok());
      }
    }
    if (round < 5) {
      ASSERT_TRUE(tree_->Flush().ok());
    }
  }

  for (int trial = 0; trial < 20; trial++) {
    const Timestamp read_ts =
        trial % 2 == 0 ? kMaxTimestamp : 1 + rng.Uniform(ts);
    std::vector<std::string> keys;
    std::vector<std::string> rows;
    for (int i = 0; i < 25; i++) {
      const std::string row = "r" + std::to_string(rng.Uniform(45));
      rows.push_back(row);
      keys.push_back(Cell(row, "c" + std::to_string(rng.Uniform(5))));
    }
    if (trial % 3 == 0) std::sort(keys.begin(), keys.end());

    std::vector<Slice> slices(keys.begin(), keys.end());
    std::vector<LsmTree::GetResult> results;
    tree_->MultiGet(slices, read_ts, &results);
    ASSERT_EQ(results.size(), keys.size());
    for (size_t i = 0; i < keys.size(); i++) {
      std::string value;
      Timestamp version = 0;
      const Status s = tree_->Get(keys[i], read_ts, &value, &version);
      ASSERT_EQ(results[i].status.ToString(), s.ToString()) << keys[i];
      if (s.ok()) {
        EXPECT_EQ(results[i].value, value) << keys[i];
        EXPECT_EQ(results[i].ts, version) << keys[i];
      }
    }

    std::vector<std::vector<ReadCell>> read;
    ASSERT_TRUE(ReadRows(rows, read_ts, &read).ok());
    for (size_t i = 0; i < rows.size(); i++) {
      EXPECT_EQ(read[i], ScanRow(rows[i], read_ts)) << rows[i];
    }
  }
}

}  // namespace
}  // namespace diffindex
