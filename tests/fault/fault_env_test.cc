#include "fault/fault_env.h"

#include <gtest/gtest.h>

#include <string>
#include <unistd.h>

#include "obs/metrics.h"
#include "util/env.h"

namespace diffindex {
namespace fault {
namespace {

class FaultEnvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "fault_env_test_" +
           std::to_string(getpid()) + "_" +
           std::to_string(reinterpret_cast<uintptr_t>(this) & 0xffff);
    ASSERT_TRUE(Env::Default()->CreateDirIfMissing(dir_).ok());
  }
  void TearDown() override {
    (void)Env::Default()->RemoveDirRecursively(dir_);
  }

  std::string ReadAll(const std::string& path) {
    std::unique_ptr<RandomAccessFile> file;
    EXPECT_TRUE(Env::Default()->NewRandomAccessFile(path, &file).ok());
    std::string scratch(file->Size(), '\0');
    Slice result;
    EXPECT_TRUE(
        file->Read(0, scratch.size(), &result, scratch.data()).ok());
    return std::string(result.data(), result.size());
  }

  std::string dir_;
};

TEST_F(FaultEnvTest, PassesThroughWithoutRules) {
  FaultEnv env(Env::Default());
  const std::string path = dir_ + "/plain.log";
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env.NewWritableFile(path, &file).ok());
  ASSERT_TRUE(file->Append("hello").ok());
  ASSERT_TRUE(file->Sync().ok());
  ASSERT_TRUE(file->Close().ok());
  EXPECT_EQ(ReadAll(path), "hello");
  EXPECT_EQ(env.injected(), 0u);
}

TEST_F(FaultEnvTest, ShortWriteTearsTheCrossingAppend) {
  FaultEnv env(Env::Default());
  FaultEnv::Rule rule;
  rule.path_substring = ".log";
  rule.kind = FaultEnv::Rule::Kind::kShortWrite;
  rule.byte_budget = 10;
  env.AddRule(rule);

  const std::string path = dir_ + "/torn.log";
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env.NewWritableFile(path, &file).ok());
  ASSERT_TRUE(file->Append("12345678").ok());  // 8 bytes, within budget
  Status s = file->Append("ABCDEFGH");         // crosses: 2 bytes land
  EXPECT_TRUE(s.IsIOError());
  (void)file->Close();
  EXPECT_EQ(ReadAll(path), "12345678AB");
  EXPECT_EQ(env.injected(), 1u);
}

TEST_F(FaultEnvTest, DiskFullRefusesTheCrossingAppendEntirely) {
  FaultEnv env(Env::Default());
  FaultEnv::Rule rule;
  rule.path_substring = ".sst";
  rule.kind = FaultEnv::Rule::Kind::kDiskFull;
  rule.byte_budget = 4;
  env.AddRule(rule);

  const std::string path = dir_ + "/full.sst";
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env.NewWritableFile(path, &file).ok());
  ASSERT_TRUE(file->Append("1234").ok());
  EXPECT_FALSE(file->Append("x").ok());  // nothing of this lands
  (void)file->Close();
  EXPECT_EQ(ReadAll(path), "1234");

  // Other extensions are untouched by the .sst rule.
  std::unique_ptr<WritableFile> other;
  ASSERT_TRUE(env.NewWritableFile(dir_ + "/ok.log", &other).ok());
  EXPECT_TRUE(other->Append("123456789").ok());
  (void)other->Close();
}

TEST_F(FaultEnvTest, SyncAndReadErrors) {
  FaultEnv env(Env::Default());
  const std::string path = dir_ + "/s.log";
  {
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(env.NewWritableFile(path, &file).ok());
    ASSERT_TRUE(file->Append("data").ok());
    FaultEnv::Rule rule;
    rule.kind = FaultEnv::Rule::Kind::kSyncError;
    env.AddRule(rule);
    EXPECT_FALSE(file->Sync().ok());
    env.ClearRules();
    EXPECT_TRUE(file->Sync().ok());
    ASSERT_TRUE(file->Close().ok());
  }
  FaultEnv::Rule read_rule;
  read_rule.kind = FaultEnv::Rule::Kind::kReadError;
  env.AddRule(read_rule);
  std::unique_ptr<RandomAccessFile> ra;
  ASSERT_TRUE(env.NewRandomAccessFile(path, &ra).ok());
  char scratch[16];
  Slice result;
  EXPECT_FALSE(ra->Read(0, 4, &result, scratch).ok());
  env.ClearRules();
  EXPECT_TRUE(ra->Read(0, 4, &result, scratch).ok());
  EXPECT_EQ(result.ToString(), "data");
}

TEST_F(FaultEnvTest, ProbabilisticAppendErrorIsSeededAndCounted) {
  obs::MetricsRegistry metrics;
  auto run = [&](uint64_t seed) {
    FaultEnv env(Env::Default());
    env.SetSeed(seed);
    env.SetMetrics(&metrics);
    FaultEnv::Rule rule;
    rule.kind = FaultEnv::Rule::Kind::kAppendError;
    rule.probability = 0.5;
    env.AddRule(rule);
    std::unique_ptr<WritableFile> file;
    EXPECT_TRUE(
        env.NewWritableFile(dir_ + "/p" + std::to_string(seed), &file).ok());
    std::vector<bool> outcomes;
    for (int i = 0; i < 64; i++) {
      outcomes.push_back(file->Append("x").ok());
    }
    (void)file->Close();
    env.SetMetrics(nullptr);
    return outcomes;
  };
  const auto a = run(7);
  FaultEnv env2(Env::Default());
  env2.SetSeed(7);
  // Same seed, same rule: identical fault pattern (file name differs but
  // decisions depend only on the PRNG draw sequence).
  FaultEnv::Rule rule;
  rule.kind = FaultEnv::Rule::Kind::kAppendError;
  rule.probability = 0.5;
  env2.AddRule(rule);
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env2.NewWritableFile(dir_ + "/replay", &file).ok());
  for (int i = 0; i < 64; i++) {
    EXPECT_EQ(file->Append("x").ok(), a[i]) << "diverged at append " << i;
  }
  (void)file->Close();
  EXPECT_GT(metrics.GetCounter("fault.env.append_error")->value(), 0u);
}

}  // namespace
}  // namespace fault
}  // namespace diffindex
