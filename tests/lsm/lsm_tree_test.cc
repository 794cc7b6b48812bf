// End-to-end tests of the LsmTree facade: flush, compaction, version GC,
// tombstone semantics across stores, scans, manifest recovery, and a
// property test against a model store.

#include "lsm/lsm_tree.h"

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <unistd.h>

#include "lsm/compactor.h"
#include "util/random.h"

namespace diffindex {
namespace {

class LsmTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "lsm_test_" +
           std::to_string(getpid()) + "_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    (void)Env::Default()->RemoveDirRecursively(dir_);
    options_.memtable_flush_bytes = 16 << 10;
    options_.block_size = 512;
    options_.block_cache = std::make_shared<BlockCache>(1 << 20);
    options_.compaction_trigger = 4;
    Reopen();
  }

  void TearDown() override {
    tree_.reset();
    (void)Env::Default()->RemoveDirRecursively(dir_);
  }

  void Reopen() {
    tree_.reset();
    ASSERT_TRUE(LsmTree::Open(options_, dir_, &tree_).ok());
  }

  std::string Get(const std::string& key, Timestamp read_ts = kMaxTimestamp) {
    std::string value;
    Status s = tree_->Get(key, read_ts, &value);
    if (s.IsNotFound()) return "<absent>";
    EXPECT_TRUE(s.ok()) << s.ToString();
    return value;
  }

  LsmOptions options_;
  std::string dir_;
  std::unique_ptr<LsmTree> tree_;
};

TEST_F(LsmTreeTest, PutGetDelete) {
  ASSERT_TRUE(tree_->Put("k", "v1", 10).ok());
  EXPECT_EQ(Get("k"), "v1");
  ASSERT_TRUE(tree_->Put("k", "v2", 20).ok());
  EXPECT_EQ(Get("k"), "v2");
  ASSERT_TRUE(tree_->Delete("k", 30).ok());
  EXPECT_EQ(Get("k"), "<absent>");
  // Historical reads still see the pre-delete data.
  EXPECT_EQ(Get("k", 25), "v2");
  EXPECT_EQ(Get("k", 15), "v1");
  EXPECT_EQ(Get("k", 5), "<absent>");
}

TEST_F(LsmTreeTest, VersionTsReported) {
  ASSERT_TRUE(tree_->Put("k", "v", 42).ok());
  std::string value;
  Timestamp ts = 0;
  ASSERT_TRUE(tree_->Get("k", kMaxTimestamp, &value, &ts).ok());
  EXPECT_EQ(ts, 42u);
}

TEST_F(LsmTreeTest, SurvivesFlush) {
  ASSERT_TRUE(tree_->Put("a", "va", 1).ok());
  ASSERT_TRUE(tree_->Put("b", "vb", 2).ok());
  ASSERT_TRUE(tree_->Flush().ok());
  EXPECT_EQ(tree_->NumDiskStores(), 1);
  EXPECT_EQ(tree_->MemtableEntries(), 0u);
  EXPECT_EQ(Get("a"), "va");
  EXPECT_EQ(Get("b"), "vb");
  EXPECT_EQ(tree_->flushed_ts(), 2u);
}

TEST_F(LsmTreeTest, ReadsMergeAcrossMemtableAndStores) {
  ASSERT_TRUE(tree_->Put("k", "v1", 10).ok());
  ASSERT_TRUE(tree_->Flush().ok());
  ASSERT_TRUE(tree_->Put("k", "v2", 20).ok());
  // Newest in memtable, older on disk.
  EXPECT_EQ(Get("k"), "v2");
  EXPECT_EQ(Get("k", 15), "v1");
}

TEST_F(LsmTreeTest, TombstoneInMemtableMasksDiskPut) {
  ASSERT_TRUE(tree_->Put("k", "v1", 10).ok());
  ASSERT_TRUE(tree_->Flush().ok());
  ASSERT_TRUE(tree_->Delete("k", 20).ok());
  EXPECT_EQ(Get("k"), "<absent>");
}

TEST_F(LsmTreeTest, TombstoneSurvivesFlushUntilMajorCompaction) {
  ASSERT_TRUE(tree_->Put("k", "v1", 10).ok());
  ASSERT_TRUE(tree_->Flush().ok());
  ASSERT_TRUE(tree_->Delete("k", 20).ok());
  ASSERT_TRUE(tree_->Flush().ok());
  EXPECT_EQ(tree_->NumDiskStores(), 2);
  EXPECT_EQ(Get("k"), "<absent>");
  ASSERT_TRUE(tree_->CompactAll().ok());
  EXPECT_EQ(tree_->NumDiskStores(), 1);
  EXPECT_EQ(Get("k"), "<absent>");  // still deleted after GC
}

TEST_F(LsmTreeTest, CompactionKeepsMaxVersions) {
  options_.max_versions = 2;
  Reopen();
  for (Timestamp ts = 1; ts <= 6; ts++) {
    ASSERT_TRUE(tree_->Put("k", "v" + std::to_string(ts), ts).ok());
    ASSERT_TRUE(tree_->Flush().ok());
  }
  ASSERT_TRUE(tree_->CompactAll().ok());
  std::vector<LsmTree::Version> versions;
  ASSERT_TRUE(tree_->GetVersions("k", &versions).ok());
  ASSERT_EQ(versions.size(), 2u);
  EXPECT_EQ(versions[0].ts, 6u);
  EXPECT_EQ(versions[1].ts, 5u);
  // Latest still correct.
  EXPECT_EQ(Get("k"), "v6");
}

TEST_F(LsmTreeTest, AutoFlushOnMemtableFull) {
  Random rng(3);
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(tree_->Put("key" + std::to_string(i), rng.RandomBytes(100),
                           i + 1)
                    .ok());
    if (tree_->NeedsFlush()) {
      ASSERT_TRUE(tree_->Flush().ok());
    }
  }
  EXPECT_GT(tree_->NumDiskStores(), 0);
  EXPECT_EQ(Get("key0"), Get("key0"));  // readable, deterministic
  EXPECT_NE(Get("key1999"), "<absent>");
}

TEST_F(LsmTreeTest, ScanRange) {
  ASSERT_TRUE(tree_->Put("a", "va", 1).ok());
  ASSERT_TRUE(tree_->Put("b", "vb", 2).ok());
  ASSERT_TRUE(tree_->Put("c", "vc", 3).ok());
  ASSERT_TRUE(tree_->Put("d", "vd", 4).ok());
  std::vector<LsmTree::ScanEntry> out;
  ASSERT_TRUE(tree_->Scan("b", "d", kMaxTimestamp, 0, &out).ok());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].key, "b");
  EXPECT_EQ(out[1].key, "c");
}

TEST_F(LsmTreeTest, ScanSeesLatestVersionOnly) {
  ASSERT_TRUE(tree_->Put("k", "old", 1).ok());
  ASSERT_TRUE(tree_->Flush().ok());
  ASSERT_TRUE(tree_->Put("k", "new", 2).ok());
  std::vector<LsmTree::ScanEntry> out;
  ASSERT_TRUE(tree_->Scan("", "", kMaxTimestamp, 0, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].value, "new");
}

TEST_F(LsmTreeTest, ScanSkipsDeleted) {
  ASSERT_TRUE(tree_->Put("a", "va", 1).ok());
  ASSERT_TRUE(tree_->Put("b", "vb", 2).ok());
  ASSERT_TRUE(tree_->Delete("a", 3).ok());
  std::vector<LsmTree::ScanEntry> out;
  ASSERT_TRUE(tree_->Scan("", "", kMaxTimestamp, 0, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].key, "b");
}

TEST_F(LsmTreeTest, ScanAtHistoricalTimestamp) {
  ASSERT_TRUE(tree_->Put("a", "va", 10).ok());
  ASSERT_TRUE(tree_->Put("b", "vb", 20).ok());
  std::vector<LsmTree::ScanEntry> out;
  ASSERT_TRUE(tree_->Scan("", "", 15, 0, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].key, "a");
}

TEST_F(LsmTreeTest, ScanLimit) {
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(
        tree_->Put("k" + std::to_string(i), "v", i + 1).ok());
  }
  std::vector<LsmTree::ScanEntry> out;
  ASSERT_TRUE(tree_->Scan("", "", kMaxTimestamp, 3, &out).ok());
  EXPECT_EQ(out.size(), 3u);
}

TEST_F(LsmTreeTest, ScanPrefixStyleRange) {
  // Index reads scan [v, v+1) style ranges over concatenated keys.
  ASSERT_TRUE(tree_->Put(std::string("title_a\0r1", 10), "", 1).ok());
  ASSERT_TRUE(tree_->Put(std::string("title_a\0r2", 10), "", 2).ok());
  ASSERT_TRUE(tree_->Put(std::string("title_b\0r3", 10), "", 3).ok());
  std::vector<LsmTree::ScanEntry> out;
  ASSERT_TRUE(tree_->Scan(std::string("title_a", 7),
                          std::string("title_a\xff", 8), kMaxTimestamp, 0,
                          &out)
                  .ok());
  EXPECT_EQ(out.size(), 2u);
}

TEST_F(LsmTreeTest, PersistsAcrossReopen) {
  ASSERT_TRUE(tree_->Put("k1", "v1", 1).ok());
  ASSERT_TRUE(tree_->Put("k2", "v2", 2).ok());
  ASSERT_TRUE(tree_->Flush().ok());
  ASSERT_TRUE(tree_->Put("k3", "only-in-memtable", 3).ok());
  Reopen();
  // Flushed data persisted; memtable data is the WAL's job (owned by the
  // region server), so k3 is gone at this layer.
  EXPECT_EQ(Get("k1"), "v1");
  EXPECT_EQ(Get("k2"), "v2");
  EXPECT_EQ(Get("k3"), "<absent>");
  EXPECT_EQ(tree_->flushed_ts(), 2u);
}

TEST_F(LsmTreeTest, ReopenAfterCompaction) {
  for (int i = 0; i < 5; i++) {
    ASSERT_TRUE(tree_->Put("k" + std::to_string(i), "v", i + 1).ok());
    ASSERT_TRUE(tree_->Flush().ok());
  }
  ASSERT_TRUE(tree_->CompactAll().ok());
  Reopen();
  EXPECT_EQ(tree_->NumDiskStores(), 1);
  for (int i = 0; i < 5; i++) {
    EXPECT_EQ(Get("k" + std::to_string(i)), "v");
  }
}

TEST_F(LsmTreeTest, OrphanSstRemovedOnOpen) {
  ASSERT_TRUE(tree_->Put("k", "v", 1).ok());
  ASSERT_TRUE(tree_->Flush().ok());
  // Simulate a crashed compaction output: an .sst not in the manifest.
  {
    std::unique_ptr<WritableFile> f;
    ASSERT_TRUE(
        Env::Default()->NewWritableFile(dir_ + "/99999999.sst", &f).ok());
    ASSERT_TRUE(f->Append("garbage").ok());
    ASSERT_TRUE(f->Close().ok());
  }
  Reopen();
  EXPECT_FALSE(Env::Default()->FileExists(dir_ + "/99999999.sst"));
  EXPECT_EQ(Get("k"), "v");
}

TEST_F(LsmTreeTest, CompactionTriggerFiresAutomatically) {
  Compactor compactor(nullptr);
  options_.compactor = &compactor;
  options_.compaction_trigger = 3;
  Reopen();
  for (int i = 0; i < 3; i++) {
    ASSERT_TRUE(tree_->Put("k" + std::to_string(i), "v", i + 1).ok());
    ASSERT_TRUE(tree_->Flush().ok());
  }
  // Third flush reached the trigger; the compactor merged the stores.
  ASSERT_TRUE(tree_->WaitForCompaction().ok());
  EXPECT_EQ(tree_->NumDiskStores(), 1);
  tree_.reset();  // before the compactor it was given goes away
}

TEST_F(LsmTreeTest, GetVersionsNewestFirst) {
  ASSERT_TRUE(tree_->Put("k", "v1", 1).ok());
  ASSERT_TRUE(tree_->Flush().ok());
  ASSERT_TRUE(tree_->Put("k", "v2", 2).ok());
  ASSERT_TRUE(tree_->Delete("k", 3).ok());
  std::vector<LsmTree::Version> versions;
  ASSERT_TRUE(tree_->GetVersions("k", &versions).ok());
  ASSERT_EQ(versions.size(), 3u);
  EXPECT_TRUE(versions[0].is_tombstone);
  EXPECT_EQ(versions[1].value, "v2");
  EXPECT_EQ(versions[2].value, "v1");
}

// Property test: random op stream (with interleaved flush/compaction)
// matches a model multi-version map at arbitrary read timestamps.
TEST_F(LsmTreeTest, RandomOpsMatchModelAcrossFlushes) {
  options_.max_versions = 1000;  // disable version GC for exact modeling
  Reopen();
  std::map<std::string, std::map<Timestamp, std::optional<std::string>>>
      model;
  Random rng(2024);
  Timestamp ts = 0;
  for (int i = 0; i < 4000; i++) {
    const std::string key = "key" + std::to_string(rng.Uniform(80));
    ts += 1 + rng.Uniform(2);
    if (rng.OneIn(6)) {
      ASSERT_TRUE(tree_->Delete(key, ts).ok());
      model[key][ts] = std::nullopt;
    } else {
      const std::string value = "v" + std::to_string(i);
      ASSERT_TRUE(tree_->Put(key, value, ts).ok());
      model[key][ts] = value;
    }
    if (rng.OneIn(500)) {
      ASSERT_TRUE(tree_->Flush().ok());
    }
    if (rng.OneIn(1500)) {
      ASSERT_TRUE(tree_->CompactAll().ok());
    }
  }

  // Latest reads.
  for (const auto& [key, versions] : model) {
    const auto& [last_ts, last_value] = *versions.rbegin();
    std::string got;
    Status s = tree_->Get(key, kMaxTimestamp, &got);
    if (last_value.has_value()) {
      ASSERT_TRUE(s.ok()) << key << ": " << s.ToString();
      EXPECT_EQ(got, *last_value);
    } else {
      EXPECT_TRUE(s.IsNotFound()) << key << " deleted at " << last_ts;
    }
  }

  // Historical reads at random timestamps. A tombstone at T masks
  // versions with ts <= T, so the model lookup mirrors the LSM rule: the
  // newest record with ts <= read_ts decides. Keys that were ever deleted
  // are skipped here: a major compaction legitimately garbage-collects
  // tombstones together with the masked history, so historical reads
  // below a GC'd tombstone are not answerable (latest reads, verified
  // above, still are).
  for (int i = 0; i < 1000; i++) {
    const std::string key = "key" + std::to_string(rng.Uniform(80));
    const Timestamp read_ts = 1 + rng.Uniform(ts);
    auto kit = model.find(key);
    std::string got;
    Status s = tree_->Get(key, read_ts, &got);
    if (kit == model.end()) {
      EXPECT_TRUE(s.IsNotFound());
      continue;
    }
    bool ever_deleted = false;
    for (const auto& [vts, v] : kit->second) {
      if (!v.has_value()) {
        ever_deleted = true;
        break;
      }
    }
    if (ever_deleted) continue;
    auto vit = kit->second.upper_bound(read_ts);
    if (vit == kit->second.begin()) {
      EXPECT_TRUE(s.IsNotFound()) << key << "@" << read_ts;
      continue;
    }
    --vit;
    if (vit->second.has_value()) {
      ASSERT_TRUE(s.ok()) << key << "@" << read_ts << ": " << s.ToString();
      EXPECT_EQ(got, *vit->second);
    } else {
      EXPECT_TRUE(s.IsNotFound()) << key << "@" << read_ts;
    }
  }

  // Scans agree with the model at the latest timestamp.
  std::vector<LsmTree::ScanEntry> out;
  ASSERT_TRUE(tree_->Scan("", "", kMaxTimestamp, 0, &out).ok());
  size_t live = 0;
  for (const auto& [key, versions] : model) {
    if (versions.rbegin()->second.has_value()) live++;
  }
  EXPECT_EQ(out.size(), live);
}

}  // namespace
}  // namespace diffindex
