// The background compactor (lsm/compactor.h) and an LsmTree's compaction
// job: a flush hands the merge off and returns, reads and writes go on
// while it runs, triggers coalesce into one rerun, a failed merge keeps
// its inputs, a crash before the manifest write keeps the manifest on the
// inputs, and a fenced tree leaves the queue at once.

#include "lsm/compactor.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <unistd.h>

#include "fault/failpoint.h"
#include "fault/fault_env.h"
#include "hold_env.h"
#include "lsm/lsm_tree.h"

namespace diffindex {
namespace {

class CompactorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "compactor_test_" +
           std::to_string(getpid()) + "_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    (void)Env::Default()->RemoveDirRecursively(dir_);
    compactor_ = std::make_unique<Compactor>(&metrics_);
    options_.env = &env_;
    options_.metrics = &metrics_;
    options_.block_cache = std::make_shared<BlockCache>(1 << 20);
    options_.compactor = compactor_.get();
    options_.compaction_trigger = 3;
  }

  void TearDown() override {
    env_.Release();
    trees_.clear();
    compactor_.reset();
    (void)Env::Default()->RemoveDirRecursively(dir_);
  }

  LsmTree* Open(const std::string& name) {
    std::unique_ptr<LsmTree> tree;
    EXPECT_TRUE(LsmTree::Open(options_, dir_ + "/" + name, &tree).ok());
    trees_.push_back(std::move(tree));
    return trees_.back().get();
  }

  // One store holding key k<i> = v<i>@<i>.
  static void PutAndFlush(LsmTree* tree, int i) {
    ASSERT_TRUE(tree->Put("k" + std::to_string(i), "v" + std::to_string(i),
                          static_cast<Timestamp>(i))
                    .ok());
    ASSERT_TRUE(tree->Flush().ok());
  }

  static std::string Get(LsmTree* tree, const std::string& key) {
    std::string value;
    Status s = tree->Get(key, kMaxTimestamp, &value);
    return s.ok() ? value : s.ToString();
  }

  uint64_t Compactions() {
    return metrics_.GetCounter("lsm.compaction")->value();
  }

  static std::vector<std::string> SstFiles(const std::string& dir) {
    std::vector<std::string> names;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (entry.path().extension() == ".sst") {
        names.push_back(entry.path().filename().string());
      }
    }
    std::sort(names.begin(), names.end());
    return names;
  }

  std::string dir_;
  HoldingEnv env_;
  obs::MetricsRegistry metrics_;
  std::unique_ptr<Compactor> compactor_;
  LsmOptions options_;
  std::vector<std::unique_ptr<LsmTree>> trees_;
};

TEST_F(CompactorTest, FlushHandsTheMergeToTheCompactorThread) {
  LsmTree* tree = Open("t");
  env_.Arm();
  for (int i = 1; i <= 3; i++) PutAndFlush(tree, i);
  // The third flush reached the trigger and returned; the merge is held
  // on the compactor thread, its output built.
  ASSERT_TRUE(env_.WaitHeld());
  EXPECT_EQ(metrics_.GetGauge("lsm.compaction.pending")->value(), 1);

  // Writes, flushes and reads go on beside it.
  PutAndFlush(tree, 4);
  ASSERT_TRUE(tree->Put("k1", "v1-new", 5).ok());
  EXPECT_EQ(tree->NumDiskStores(), 4);
  EXPECT_EQ(Get(tree, "k1"), "v1-new");
  EXPECT_EQ(Get(tree, "k3"), "v3");

  env_.Release();
  ASSERT_TRUE(tree->WaitForCompaction().ok());
  // The three inputs became one store behind the one flushed meanwhile;
  // the fourth flush's trigger re-checked the count (2 < 3) and stopped.
  EXPECT_EQ(tree->NumDiskStores(), 2);
  EXPECT_EQ(Compactions(), 1u);
  EXPECT_EQ(metrics_.GetGauge("lsm.compaction.pending")->value(), 0);
  for (int i = 2; i <= 4; i++) {
    EXPECT_EQ(Get(tree, "k" + std::to_string(i)), "v" + std::to_string(i));
  }
  EXPECT_EQ(Get(tree, "k1"), "v1-new");
}

TEST_F(CompactorTest, TriggersDuringAJobCoalesceIntoOneRerun) {
  options_.compaction_trigger = 2;
  LsmTree* tree = Open("t");
  env_.Arm();
  for (int i = 1; i <= 2; i++) PutAndFlush(tree, i);
  ASSERT_TRUE(env_.WaitHeld());
  // Three more triggers while the job runs: one rerun, not three jobs.
  for (int i = 3; i <= 5; i++) PutAndFlush(tree, i);
  env_.Release();
  ASSERT_TRUE(tree->WaitForCompaction().ok());
  EXPECT_EQ(Compactions(), 2u);
  EXPECT_EQ(tree->NumDiskStores(), 1);
  for (int i = 1; i <= 5; i++) {
    EXPECT_EQ(Get(tree, "k" + std::to_string(i)), "v" + std::to_string(i));
  }
}

TEST_F(CompactorTest, FailedMergeKeepsItsInputsAndTheNextTriggerRetries) {
  fault::ScopedFailpointCleanup cleanup;
  auto* failpoints = fault::FailpointRegistry::Global();
  failpoints->Arm("lsm.compaction", fault::FailpointPolicy::ErrorOnce());
  LsmTree* tree = Open("t");
  for (int i = 1; i <= 3; i++) PutAndFlush(tree, i);
  Status s = tree->WaitForCompaction();
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_EQ(failpoints->fires("lsm.compaction"), 1u);
  // Reported once; the inputs are still the tree.
  EXPECT_TRUE(tree->WaitForCompaction().ok());
  EXPECT_EQ(tree->NumDiskStores(), 3);
  EXPECT_EQ(SstFiles(dir_ + "/t").size(), 3u);
  for (int i = 1; i <= 3; i++) {
    EXPECT_EQ(Get(tree, "k" + std::to_string(i)), "v" + std::to_string(i));
  }

  PutAndFlush(tree, 4);
  ASSERT_TRUE(tree->WaitForCompaction().ok());
  EXPECT_EQ(tree->NumDiskStores(), 1);
  EXPECT_EQ(SstFiles(dir_ + "/t").size(), 1u);
  for (int i = 1; i <= 4; i++) {
    EXPECT_EQ(Get(tree, "k" + std::to_string(i)), "v" + std::to_string(i));
  }
}

TEST_F(CompactorTest, CrashBeforeTheManifestWriteKeepsTheManifestOnItsInputs) {
  fault::FaultEnv fault_env(Env::Default());
  options_.env = &fault_env;
  LsmTree* tree = Open("t");
  for (int i = 1; i <= 2; i++) PutAndFlush(tree, i);
  const std::vector<std::string> inputs = SstFiles(dir_ + "/t");
  ASSERT_EQ(inputs.size(), 2u);

  // The process dies once the merged output is on disk: its manifest
  // write never lands.
  fault::FaultEnv::Rule dead;
  dead.path_substring = "TABLES";
  dead.kind = fault::FaultEnv::Rule::Kind::kAppendError;
  fault_env.AddRule(dead);
  EXPECT_FALSE(tree->CompactAll().ok());
  EXPECT_EQ(SstFiles(dir_ + "/t").size(), 3u);  // inputs + orphan output
  trees_.clear();
  fault_env.ClearRules();

  std::ifstream manifest(dir_ + "/t/TABLES");
  std::stringstream listed;
  listed << manifest.rdbuf();
  for (const std::string& name : inputs) {
    const uint64_t number = std::stoull(name);
    EXPECT_NE(listed.str().find("file " + std::to_string(number) + "\n"),
              std::string::npos)
        << listed.str();
  }
  // The next open serves the inputs and collects the orphan.
  tree = Open("t");
  EXPECT_EQ(tree->NumDiskStores(), 2);
  EXPECT_EQ(SstFiles(dir_ + "/t"), inputs);
  EXPECT_EQ(Get(tree, "k1"), "v1");
  EXPECT_EQ(Get(tree, "k2"), "v2");
}

TEST_F(CompactorTest, StopCompactionTakesAQueuedJobOffTheQueue) {
  LsmTree* busy = Open("busy");
  LsmTree* queued = Open("queued");
  env_.Arm();
  for (int i = 1; i <= 3; i++) PutAndFlush(busy, i);
  ASSERT_TRUE(env_.WaitHeld());
  // `queued` waits behind `busy`'s held merge; fencing it does not.
  for (int i = 1; i <= 3; i++) PutAndFlush(queued, i);
  EXPECT_EQ(metrics_.GetGauge("lsm.compaction.pending")->value(), 2);
  // A CompactAll waiting for the queued job learns that it will not run.
  Status waited;
  std::thread waiter([&] { waited = queued->CompactAll(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queued->StopCompaction();
  waiter.join();
  EXPECT_TRUE(waited.IsAborted()) << waited.ToString();
  EXPECT_EQ(metrics_.GetGauge("lsm.compaction.pending")->value(), 1);
  EXPECT_TRUE(queued->CompactAll().IsAborted());
  PutAndFlush(queued, 4);  // a fenced tree's trigger queues nothing

  env_.Release();
  ASSERT_TRUE(busy->WaitForCompaction().ok());
  EXPECT_EQ(busy->NumDiskStores(), 1);
  EXPECT_EQ(queued->NumDiskStores(), 4);
  EXPECT_EQ(Compactions(), 1u);
  EXPECT_EQ(Get(queued, "k4"), "v4");
}

TEST_F(CompactorTest, ShutdownAbandonsQueuedJobs) {
  LsmTree* busy = Open("busy");
  LsmTree* queued = Open("queued");
  env_.Arm();
  for (int i = 1; i <= 3; i++) PutAndFlush(busy, i);
  ASSERT_TRUE(env_.WaitHeld());
  for (int i = 1; i <= 3; i++) PutAndFlush(queued, i);
  std::thread releaser([this] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    env_.Release();
  });
  compactor_->Shutdown();  // waits for busy's job, drops queued's
  releaser.join();
  EXPECT_TRUE(queued->WaitForCompaction().IsAborted());
  EXPECT_EQ(queued->NumDiskStores(), 3);
  EXPECT_TRUE(queued->CompactAll().IsAborted());
  EXPECT_EQ(busy->NumDiskStores(), 1);
}

}  // namespace
}  // namespace diffindex
