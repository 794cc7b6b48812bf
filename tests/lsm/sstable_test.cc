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
    options_.block_cache = std::make_shared<LruCache>(1 << 20);
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

  options.block_cache = std::make_shared<LruCache>(1 << 20);  // cold
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
