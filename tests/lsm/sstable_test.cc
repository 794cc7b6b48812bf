#include "lsm/sstable.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <unistd.h>

#include "lsm/lsm_tree.h"
#include "lsm/memtable.h"
#include "util/random.h"

namespace diffindex {
namespace {

class SstableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "sst_test_" +
           std::to_string(getpid()) + "_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    ASSERT_TRUE(Env::Default()->CreateDirIfMissing(dir_).ok());
    options_.block_size = 256;  // small blocks: exercise multi-block paths
    options_.block_cache = std::make_shared<BlockCache>(1 << 20);
  }

  void TearDown() override {
    (void)Env::Default()->RemoveDirRecursively(dir_);
  }

  std::string Path(int n) { return dir_ + "/" + std::to_string(n) + ".sst"; }

  // Builds a table from a memtable's contents.
  std::shared_ptr<SstReader> BuildFrom(const MemTable& mem, int file_num) {
    auto iter = mem.NewIterator();
    SstMeta meta;
    Status s = BuildSstFromIterator(options_, Path(file_num), file_num,
                                    iter.get(), &meta);
    EXPECT_TRUE(s.ok()) << s.ToString();
    std::shared_ptr<SstReader> reader;
    s = SstReader::Open(options_, Path(file_num), file_num, &reader);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return reader;
  }

  LsmOptions options_;
  std::string dir_;
};

TEST_F(SstableTest, RoundTripSmall) {
  MemTable mem;
  mem.Add("alpha", 3, ValueType::kPut, "va");
  mem.Add("beta", 2, ValueType::kPut, "vb");
  mem.Add("gamma", 1, ValueType::kTombstone, "");
  auto table = BuildFrom(mem, 1);

  EXPECT_EQ(table->meta().num_entries, 3u);
  EXPECT_EQ(table->meta().smallest_user_key, "alpha");
  EXPECT_EQ(table->meta().largest_user_key, "gamma");

  LookupResult r = table->Get("alpha", kMaxTimestamp);
  EXPECT_EQ(r.state, LookupState::kFound);
  EXPECT_EQ(r.value, "va");
  EXPECT_EQ(r.ts, 3u);

  EXPECT_EQ(table->Get("gamma", kMaxTimestamp).state, LookupState::kDeleted);
  EXPECT_EQ(table->Get("nope", kMaxTimestamp).state,
            LookupState::kNotPresent);
}

TEST_F(SstableTest, MultiBlockLookups) {
  MemTable mem;
  const int n = 500;
  for (int i = 0; i < n; i++) {
    char key[16];
    snprintf(key, sizeof(key), "key%05d", i);
    mem.Add(key, 1, ValueType::kPut, "value" + std::to_string(i));
  }
  auto table = BuildFrom(mem, 1);
  for (int i = 0; i < n; i += 7) {
    char key[16];
    snprintf(key, sizeof(key), "key%05d", i);
    LookupResult r = table->Get(key, kMaxTimestamp);
    ASSERT_EQ(r.state, LookupState::kFound) << key;
    EXPECT_EQ(r.value, "value" + std::to_string(i));
  }
}

TEST_F(SstableTest, HistoricalVersionLookup) {
  MemTable mem;
  mem.Add("k", 10, ValueType::kPut, "v10");
  mem.Add("k", 20, ValueType::kPut, "v20");
  mem.Add("k", 30, ValueType::kPut, "v30");
  auto table = BuildFrom(mem, 1);
  EXPECT_EQ(table->Get("k", kMaxTimestamp).value, "v30");
  EXPECT_EQ(table->Get("k", 29).value, "v20");
  EXPECT_EQ(table->Get("k", 20).value, "v20");
  EXPECT_EQ(table->Get("k", 19).value, "v10");
  EXPECT_EQ(table->Get("k", 9).state, LookupState::kNotPresent);
}

TEST_F(SstableTest, IteratorFullScanIsSorted) {
  MemTable mem;
  Random rng(5);
  for (int i = 0; i < 300; i++) {
    mem.Add("k" + std::to_string(rng.Uniform(100000)), i + 1,
            ValueType::kPut, "v");
  }
  auto table = BuildFrom(mem, 1);
  auto iter = table->NewIterator();
  InternalKeyComparator cmp;
  std::string prev;
  uint64_t count = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    if (count > 0) {
      EXPECT_LT(cmp.Compare(prev, iter->key()), 0);
    }
    prev = iter->key().ToString();
    count++;
  }
  EXPECT_TRUE(iter->status().ok());
  EXPECT_EQ(count, table->meta().num_entries);
}

TEST_F(SstableTest, IteratorSeekLandsAtLowerBound) {
  MemTable mem;
  for (int i = 0; i < 100; i += 2) {  // even keys only
    char key[16];
    snprintf(key, sizeof(key), "k%03d", i);
    mem.Add(key, 1, ValueType::kPut, "v");
  }
  auto table = BuildFrom(mem, 1);
  auto iter = table->NewIterator();
  // Seek to an absent odd key: should land on the next even key.
  iter->Seek(MakeInternalKey("k031", kMaxTimestamp, ValueType::kTombstone));
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(ExtractUserKey(iter->key()).ToString(), "k032");

  iter->Seek(MakeInternalKey("k999", kMaxTimestamp, ValueType::kTombstone));
  EXPECT_FALSE(iter->Valid());
}

TEST_F(SstableTest, BloomFilterSkipsAbsentKeys) {
  MemTable mem;
  for (int i = 0; i < 1000; i++) {
    mem.Add("present" + std::to_string(i), 1, ValueType::kPut, "v");
  }
  auto table = BuildFrom(mem, 1);
  int admitted = 0;
  for (int i = 0; i < 1000; i++) {
    if (table->KeyMayMatch("absent" + std::to_string(i))) admitted++;
  }
  EXPECT_LT(admitted, 50);  // ~1% target, generous bound
  for (int i = 0; i < 1000; i++) {
    EXPECT_TRUE(table->KeyMayMatch("present" + std::to_string(i)));
  }
}

TEST_F(SstableTest, BlockCacheAvoidsRereads) {
  MemTable mem;
  for (int i = 0; i < 200; i++) {
    mem.Add("k" + std::to_string(i), 1, ValueType::kPut, "v");
  }
  auto table = BuildFrom(mem, 1);
  const uint64_t misses_before = options_.block_cache->misses();
  (void)table->Get("k5", kMaxTimestamp);
  (void)table->Get("k5", kMaxTimestamp);
  (void)table->Get("k5", kMaxTimestamp);
  const uint64_t misses_after = options_.block_cache->misses();
  // Only the first lookup of the block may miss.
  EXPECT_LE(misses_after - misses_before, 1u);
}

// How many of this process's memory mappings and file descriptors name
// `path` (a deleted file still shows up, with " (deleted)" appended).
int TimesHeld(const std::string& path) {
  int n = 0;
  std::ifstream maps("/proc/self/maps");
  for (std::string line; std::getline(maps, line);) {
    if (line.find(path) != std::string::npos) n++;
  }
  for (const auto& fd : std::filesystem::directory_iterator("/proc/self/fd")) {
    std::error_code ec;
    const std::string target = std::filesystem::read_symlink(fd, ec).string();
    if (!ec && target.find(path) != std::string::npos) n++;
  }
  return n;
}

TEST_F(SstableTest, CompactedAwayTableIsReleasedAndLeavesTheBlockCache) {
  const std::string tree_dir = dir_ + "/tree";
  std::unique_ptr<LsmTree> tree;
  ASSERT_TRUE(LsmTree::Open(options_, tree_dir, &tree).ok());
  for (Timestamp ts : {1, 2}) {
    for (int i = 0; i < 200; i++) {
      ASSERT_TRUE(tree->Put("k" + std::to_string(1000 + i),
                            "v" + std::to_string(ts), ts)
                      .ok());
    }
    ASSERT_TRUE(tree->Flush().ok());
  }
  ASSERT_EQ(tree->NumDiskStores(), 2);
  std::vector<std::string> old_tables;
  for (const auto& entry : std::filesystem::directory_iterator(tree_dir)) {
    if (entry.path().extension() == ".sst") {
      old_tables.push_back(entry.path().string());
    }
  }
  ASSERT_EQ(old_tables.size(), 2u);
  std::string value;
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(tree->Get("k" + std::to_string(1000 + i), 1, &value).ok());
  }
  for (const auto& table : old_tables) EXPECT_GE(TimesHeld(table), 1);

  ASSERT_GT(options_.block_cache->usage(), 0u);
  ASSERT_TRUE(tree->CompactAll().ok());
  ASSERT_EQ(tree->NumDiskStores(), 1);
  // The cache is far from full, so nothing evicted the old tables' blocks:
  // the compaction dropped them, and nothing holds their files any more.
  // What stays cached is the new table's first block, read by its open —
  // the same charge as opening the compacted tree over an empty cache.
  const size_t usage = options_.block_cache->usage();
  for (const auto& table : old_tables) {
    EXPECT_FALSE(std::filesystem::exists(table)) << table;
    EXPECT_EQ(TimesHeld(table), 0) << table;
  }
  LsmOptions fresh = options_;
  fresh.block_cache = std::make_shared<BlockCache>(1 << 20);
  std::unique_ptr<LsmTree> reopened;
  ASSERT_TRUE(LsmTree::Open(fresh, tree_dir, &reopened).ok());
  EXPECT_EQ(usage, fresh.block_cache->usage());
  reopened.reset();
  ASSERT_TRUE(tree->Get("k1000", kMaxTimestamp, &value).ok());
  EXPECT_EQ(value, "v2");
}

TEST_F(SstableTest, CorruptBlockDetected) {
  MemTable mem;
  for (int i = 0; i < 200; i++) {
    mem.Add("k" + std::to_string(i), 1, ValueType::kPut,
            "value-" + std::to_string(i));
  }
  auto iter = mem.NewIterator();
  SstMeta meta;
  ASSERT_TRUE(
      BuildSstFromIterator(options_, Path(1), 1, iter.get(), &meta).ok());

  // Flip one byte early in the file (a data block body).
  {
    FILE* f = fopen(Path(1).c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    fseek(f, 16, SEEK_SET);
    int c = fgetc(f);
    fseek(f, 16, SEEK_SET);
    fputc(c ^ 0xff, f);
    fclose(f);
  }

  // No cache so the corrupt block is actually read.
  LsmOptions no_cache = options_;
  no_cache.block_cache = nullptr;
  std::shared_ptr<SstReader> reader;
  Status s = SstReader::Open(no_cache, Path(1), 1, &reader);
  if (s.ok()) {
    // Open may succeed (corruption is in a data block); the read must not
    // return bogus data.
    LookupResult r = reader->Get("k0", kMaxTimestamp);
    EXPECT_NE(r.value, "bogus");
  } else {
    EXPECT_TRUE(s.IsCorruption());
  }
}

// Flips one byte of `needle` inside the single file under `dir` that
// contains it; returns that file's path ("" if no file or several do).
std::string CorruptFileContaining(const std::string& dir,
                                  const std::string& needle) {
  std::string hit;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    const std::string bytes{std::istreambuf_iterator<char>(in), {}};
    const size_t pos = bytes.find(needle);
    if (pos == std::string::npos) continue;
    if (!hit.empty()) return "";
    hit = entry.path().string();
    std::fstream out(hit, std::ios::in | std::ios::out | std::ios::binary);
    out.seekp(static_cast<std::streamoff>(pos));
    out.put(static_cast<char>(bytes[pos] ^ 0xff));
  }
  return hit;
}

TEST_F(SstableTest, CorruptLaterBlockFailsPointReads) {
  // Two disk stores: an old version of every key, then a new one.
  const std::string tree_dir = dir_ + "/tree";
  LsmOptions options = options_;
  std::unique_ptr<LsmTree> tree;
  ASSERT_TRUE(LsmTree::Open(options, tree_dir, &tree).ok());
  for (Timestamp ts : {1, 2}) {
    const std::string version = ts == 1 ? "old" : "new";
    for (int i = 0; i < 200; i++) {
      ASSERT_TRUE(tree->Put("k" + std::to_string(1000 + i),
                            version + "-value-" + std::to_string(i), ts)
                      .ok());
    }
    ASSERT_TRUE(tree->Flush().ok());
  }
  ASSERT_EQ(tree->NumDiskStores(), 2);
  tree.reset();

  // Corrupt the new store's block holding k1150: far past block 0, which
  // Open reads, so Open succeeds and only the point read meets the damage.
  const std::string sst = CorruptFileContaining(tree_dir, "new-value-150");
  ASSERT_FALSE(sst.empty());

  options.block_cache = std::make_shared<BlockCache>(1 << 20);  // cold
  std::shared_ptr<SstReader> reader;
  ASSERT_TRUE(SstReader::Open(options, sst, 0, &reader).ok());
  LookupResult r = reader->Get("k1150", kMaxTimestamp);
  EXPECT_TRUE(r.status.IsCorruption()) << r.status.ToString();
  EXPECT_EQ(r.state, LookupState::kNotPresent);
  EXPECT_EQ(reader->Get("k1000", kMaxTimestamp).value, "new-value-0");

  ASSERT_TRUE(LsmTree::Open(options, tree_dir, &tree).ok());
  std::string value;
  Status s = tree->Get("k1150", kMaxTimestamp, &value);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_NE(value, "old-value-150");  // the older store must not answer
  // Keys in intact blocks still read their newest version.
  ASSERT_TRUE(tree->Get("k1000", kMaxTimestamp, &value).ok());
  EXPECT_EQ(value, "new-value-0");
}

// Row reads over two stores that share a key range: even rows in the
// older store, odd rows in the newer one. One data block of the even store
// is corrupt.
class SstableRowReadTest : public SstableTest {
 protected:
  void SetUp() override {
    SstableTest::SetUp();
    tree_dir_ = dir_ + "/tree";
    std::unique_ptr<LsmTree> tree;
    ASSERT_TRUE(LsmTree::Open(options_, tree_dir_, &tree).ok());
    for (int parity : {0, 1}) {
      for (int i = parity; i < 400; i += 2) {
        ASSERT_TRUE(tree->Put(CellOf(i),
                              (parity == 0 ? "even-value-" : "odd-value-") +
                                  std::to_string(i),
                              1 + parity)
                        .ok());
      }
      ASSERT_TRUE(tree->Flush().ok());
    }
    tree.reset();
    // Past block 0, which Open reads, so only row reads meet the damage.
    even_sst_ = CorruptFileContaining(tree_dir_, "even-value-250");
    ASSERT_FALSE(even_sst_.empty());
    options_.block_cache = std::make_shared<BlockCache>(1 << 20);  // cold
    ASSERT_TRUE(LsmTree::Open(options_, tree_dir_, &tree_).ok());
  }

  static std::string Row(int i) {
    char row[16];
    snprintf(row, sizeof(row), "row%04d", i);
    return row;
  }
  static std::string CellOf(int i) { return Row(i) + kRowSeparator + "c"; }

  // ScanRows of `rows`; fills the values read, one string per row.
  Status ReadRows(const std::vector<std::string>& rows,
                  std::vector<std::string>* values) {
    std::vector<Slice> slices(rows.begin(), rows.end());
    values->assign(rows.size(), "");
    return tree_->ScanRows(slices, kMaxTimestamp,
                           [values](size_t i, const Slice&,
                                    const Slice& value, Timestamp) {
                             (*values)[i] += value.ToString();
                           });
  }

  std::string tree_dir_;
  std::string even_sst_;
  std::unique_ptr<LsmTree> tree_;
};

TEST_F(SstableRowReadTest, CorruptBlockOfAStoreTheFilterSkipsIsNeverRead) {
  // row0249 seeks to row0250 in the even store, right into the corrupt
  // block; the even store's row filter keeps the read out of it.
  std::shared_ptr<SstReader> even;
  ASSERT_TRUE(SstReader::Open(options_, even_sst_, 0, &even).ok());
  ASSERT_FALSE(even->RowMayMatch(Row(249)));
  ASSERT_TRUE(even->RowMayMatch(Row(250)));

  std::vector<std::string> values;
  ASSERT_TRUE(ReadRows({Row(249), Row(251)}, &values).ok());
  EXPECT_EQ(values, (std::vector<std::string>{"odd-value-249",
                                               "odd-value-251"}));
  std::string value;
  ASSERT_TRUE(tree_->Get(CellOf(249), kMaxTimestamp, &value).ok());
  EXPECT_EQ(value, "odd-value-249");
}

TEST_F(SstableRowReadTest, CorruptBlockOfAStoreItReadsIsCorruption) {
  std::vector<std::string> values;
  Status s = ReadRows({Row(250)}, &values);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  // One bad row fails the batch it is in.
  s = ReadRows({Row(249), Row(250), Row(251)}, &values);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();

  std::string value;
  s = tree_->Get(CellOf(250), kMaxTimestamp, &value);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  const std::vector<std::string> keys = {CellOf(0), CellOf(250), CellOf(251)};
  std::vector<Slice> slices(keys.begin(), keys.end());
  std::vector<LsmTree::GetResult> results;
  tree_->MultiGet(slices, kMaxTimestamp, &results);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].status.ok()) << results[0].status.ToString();
  EXPECT_EQ(results[0].value, "even-value-0");
  EXPECT_TRUE(results[1].status.IsCorruption())
      << results[1].status.ToString();
  EXPECT_TRUE(results[2].status.ok()) << results[2].status.ToString();

  // A read older than every version of the even store's largest key seeks
  // past its last block; the error of the block read before it, in the
  // same batch, is not that key's. (At read_ts 0 row 248 seeks past its
  // own version, so into the block that holds row 250.)
  const std::vector<std::string> old_keys = {CellOf(248), CellOf(398)};
  std::vector<Slice> old_slices(old_keys.begin(), old_keys.end());
  tree_->MultiGet(old_slices, /*read_ts=*/0, &results);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].status.IsCorruption())
      << results[0].status.ToString();
  EXPECT_TRUE(results[1].status.IsNotFound()) << results[1].status.ToString();
}

// tests/lsm/testdata/cell_filter_v1.sst was written by the SstBuilder that
// predates the row-keyed filter (footer magic ...c4f3, bloom filter over
// whole user keys), block_size 256, from this memtable: for r in [0, 30),
// row "rowNN" gets cell a = "a-r-1" and cell b = "b-r" at ts 10, a newer
// a = "a-r-2" at ts 20 when r % 3 == 0, and a tombstone on b at ts 30
// when r % 5 == 0.
TEST_F(SstableTest, CellFilterFormatStillReads) {
  const std::string tree_dir = dir_ + "/old_format";
  ASSERT_TRUE(Env::Default()->CreateDirIfMissing(tree_dir).ok());
  std::filesystem::copy_file(
      std::string(DIFFINDEX_TESTDATA_DIR) + "/cell_filter_v1.sst",
      tree_dir + "/00000001.sst");
  {
    std::ofstream manifest(tree_dir + "/TABLES");
    manifest << "flushed_ts 30\nnext_file 2\nfile 1\n";
  }
  std::unique_ptr<LsmTree> tree;
  ASSERT_TRUE(LsmTree::Open(options_, tree_dir, &tree).ok());
  ASSERT_EQ(tree->NumDiskStores(), 1);

  auto row = [](int r) {
    char buf[8];
    snprintf(buf, sizeof(buf), "row%02d", r);
    return std::string(buf);
  };
  std::vector<std::string> rows;
  for (int r = 0; r < 30; r++) {
    const std::string a = row(r) + kRowSeparator + "a";
    const std::string b = row(r) + kRowSeparator + "b";
    const std::string a_newest =
        "a-" + std::to_string(r) + (r % 3 == 0 ? "-2" : "-1");
    std::string value;
    Timestamp ts = 0;
    ASSERT_TRUE(tree->Get(a, kMaxTimestamp, &value, &ts).ok()) << a;
    EXPECT_EQ(value, a_newest);
    EXPECT_EQ(ts, r % 3 == 0 ? 20u : 10u);
    ASSERT_TRUE(tree->Get(a, 15, &value).ok());
    EXPECT_EQ(value, "a-" + std::to_string(r) + "-1");
    const Status b_status = tree->Get(b, kMaxTimestamp, &value);
    if (r % 5 == 0) {
      EXPECT_TRUE(b_status.IsNotFound()) << b;
    } else {
      ASSERT_TRUE(b_status.ok()) << b;
      EXPECT_EQ(value, "b-" + std::to_string(r));
    }
    ASSERT_TRUE(tree->Get(b, 25, &value).ok());
    EXPECT_EQ(value, "b-" + std::to_string(r));
    rows.push_back(row(r));
  }
  rows.push_back("row05x");  // absent, inside the key range
  rows.push_back("row99");   // absent, past it

  std::vector<Slice> slices(rows.begin(), rows.end());
  std::vector<std::string> read(rows.size());
  ASSERT_TRUE(tree->ScanRows(slices, kMaxTimestamp,
                             [&read](size_t i, const Slice& key,
                                     const Slice& value, Timestamp) {
                               read[i] += RowOf(key).ToString() + "=" +
                                          value.ToString() + ";";
                             })
                  .ok());
  for (int r = 0; r < 30; r++) {
    std::string expected = row(r) + "=a-" + std::to_string(r) +
                           (r % 3 == 0 ? "-2" : "-1") + ";";
    if (r % 5 != 0) expected += row(r) + "=b-" + std::to_string(r) + ";";
    EXPECT_EQ(read[r], expected);
  }
  EXPECT_EQ(read[30], "");
  EXPECT_EQ(read[31], "");

  // The old filter names cells, not rows: a row read may not trust it.
  std::shared_ptr<SstReader> reader;
  ASSERT_TRUE(
      SstReader::Open(options_, tree_dir + "/00000001.sst", 1, &reader).ok());
  EXPECT_TRUE(reader->RowMayMatch("row05x"));
  EXPECT_FALSE(reader->RowMayMatch("row99"));  // out of range
  EXPECT_TRUE(reader->KeyMayMatch(row(7) + kRowSeparator + "a"));
}

TEST_F(SstableTest, TruncatedFileFailsOpen) {
  MemTable mem;
  mem.Add("k", 1, ValueType::kPut, "v");
  auto iter = mem.NewIterator();
  SstMeta meta;
  ASSERT_TRUE(
      BuildSstFromIterator(options_, Path(1), 1, iter.get(), &meta).ok());
  std::filesystem::resize_file(Path(1), 10);
  std::shared_ptr<SstReader> reader;
  EXPECT_FALSE(SstReader::Open(options_, Path(1), 1, &reader).ok());
}

TEST_F(SstableTest, LargeValuesSpanBlocks) {
  MemTable mem;
  Random rng(11);
  std::vector<std::string> values;
  for (int i = 0; i < 20; i++) {
    values.push_back(rng.RandomBytes(1500));  // bigger than block_size
    mem.Add("k" + std::to_string(i), 1, ValueType::kPut, values.back());
  }
  auto table = BuildFrom(mem, 1);
  for (int i = 0; i < 20; i++) {
    LookupResult r = table->Get("k" + std::to_string(i), kMaxTimestamp);
    ASSERT_EQ(r.state, LookupState::kFound);
    EXPECT_EQ(r.value, values[i]);
  }
}

}  // namespace
}  // namespace diffindex
