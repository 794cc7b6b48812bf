#include "util/env.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <unistd.h>

namespace diffindex {
namespace {

class EnvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "env_test_" +
           std::to_string(getpid()) + "_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    (void)Env::Default()->RemoveDirRecursively(dir_);
    ASSERT_TRUE(Env::Default()->CreateDirIfMissing(dir_).ok());
  }

  void TearDown() override {
    (void)Env::Default()->RemoveDirRecursively(dir_);
  }

  std::string dir_;
};

TEST_F(EnvTest, WriteThenSequentialRead) {
  const std::string path = dir_ + "/file";
  std::unique_ptr<WritableFile> w;
  ASSERT_TRUE(Env::Default()->NewWritableFile(path, &w).ok());
  ASSERT_TRUE(w->Append("hello ").ok());
  ASSERT_TRUE(w->Append("world").ok());
  ASSERT_TRUE(w->Sync().ok());
  ASSERT_TRUE(w->Close().ok());

  std::unique_ptr<SequentialFile> r;
  ASSERT_TRUE(Env::Default()->NewSequentialFile(path, &r).ok());
  char buf[64];
  Slice result;
  ASSERT_TRUE(r->Read(sizeof(buf), &result, buf).ok());
  EXPECT_EQ(result.ToString(), "hello world");
  ASSERT_TRUE(r->Read(sizeof(buf), &result, buf).ok());
  EXPECT_TRUE(result.empty());  // clean EOF
}

TEST_F(EnvTest, RandomAccessReadAtOffsets) {
  const std::string path = dir_ + "/file";
  std::unique_ptr<WritableFile> w;
  ASSERT_TRUE(Env::Default()->NewWritableFile(path, &w).ok());
  ASSERT_TRUE(w->Append("0123456789").ok());
  ASSERT_TRUE(w->Close().ok());

  std::unique_ptr<RandomAccessFile> r;
  ASSERT_TRUE(Env::Default()->NewRandomAccessFile(path, &r).ok());
  EXPECT_EQ(r->Size(), 10u);
  char buf[8];
  Slice result;
  ASSERT_TRUE(r->Read(3, 4, &result, buf).ok());
  EXPECT_EQ(result.ToString(), "3456");
  // Read past EOF returns the available prefix.
  ASSERT_TRUE(r->Read(8, 8, &result, buf).ok());
  EXPECT_EQ(result.ToString(), "89");
}

TEST_F(EnvTest, SequentialSkip) {
  const std::string path = dir_ + "/file";
  std::unique_ptr<WritableFile> w;
  ASSERT_TRUE(Env::Default()->NewWritableFile(path, &w).ok());
  ASSERT_TRUE(w->Append("abcdefgh").ok());
  ASSERT_TRUE(w->Close().ok());
  std::unique_ptr<SequentialFile> r;
  ASSERT_TRUE(Env::Default()->NewSequentialFile(path, &r).ok());
  ASSERT_TRUE(r->Skip(5).ok());
  char buf[8];
  Slice result;
  ASSERT_TRUE(r->Read(sizeof(buf), &result, buf).ok());
  EXPECT_EQ(result.ToString(), "fgh");
}

TEST_F(EnvTest, FileExistsAndRemove) {
  const std::string path = dir_ + "/file";
  EXPECT_FALSE(Env::Default()->FileExists(path));
  std::unique_ptr<WritableFile> w;
  ASSERT_TRUE(Env::Default()->NewWritableFile(path, &w).ok());
  ASSERT_TRUE(w->Close().ok());
  EXPECT_TRUE(Env::Default()->FileExists(path));
  ASSERT_TRUE(Env::Default()->RemoveFile(path).ok());
  EXPECT_FALSE(Env::Default()->FileExists(path));
  EXPECT_TRUE(Env::Default()->RemoveFile(path).IsIOError());
}

TEST_F(EnvTest, GetChildrenListsFiles) {
  for (const char* name : {"a", "b", "c"}) {
    std::unique_ptr<WritableFile> w;
    ASSERT_TRUE(
        Env::Default()->NewWritableFile(dir_ + "/" + name, &w).ok());
    ASSERT_TRUE(w->Close().ok());
  }
  std::vector<std::string> children;
  ASSERT_TRUE(Env::Default()->GetChildren(dir_, &children).ok());
  std::sort(children.begin(), children.end());
  EXPECT_EQ(children, (std::vector<std::string>{"a", "b", "c"}));
}

TEST_F(EnvTest, CreateDirIfMissingMakesParents) {
  const std::string nested = dir_ + "/x/y/z";
  ASSERT_TRUE(Env::Default()->CreateDirIfMissing(nested).ok());
  EXPECT_TRUE(Env::Default()->FileExists(nested));
  // Idempotent.
  ASSERT_TRUE(Env::Default()->CreateDirIfMissing(nested).ok());
}

TEST_F(EnvTest, RemoveDirRecursively) {
  ASSERT_TRUE(Env::Default()->CreateDirIfMissing(dir_ + "/a/b").ok());
  std::unique_ptr<WritableFile> w;
  ASSERT_TRUE(Env::Default()->NewWritableFile(dir_ + "/a/b/f", &w).ok());
  ASSERT_TRUE(w->Close().ok());
  ASSERT_TRUE(Env::Default()->RemoveDirRecursively(dir_ + "/a").ok());
  EXPECT_FALSE(Env::Default()->FileExists(dir_ + "/a"));
  // Removing a missing dir is OK (idempotent).
  ASSERT_TRUE(Env::Default()->RemoveDirRecursively(dir_ + "/a").ok());
}

TEST_F(EnvTest, RenameReplacesAtomically) {
  std::unique_ptr<WritableFile> w;
  ASSERT_TRUE(Env::Default()->NewWritableFile(dir_ + "/tmp", &w).ok());
  ASSERT_TRUE(w->Append("new-manifest").ok());
  ASSERT_TRUE(w->Close().ok());
  ASSERT_TRUE(Env::Default()->NewWritableFile(dir_ + "/final", &w).ok());
  ASSERT_TRUE(w->Append("old-manifest").ok());
  ASSERT_TRUE(w->Close().ok());

  ASSERT_TRUE(
      Env::Default()->RenameFile(dir_ + "/tmp", dir_ + "/final").ok());
  EXPECT_FALSE(Env::Default()->FileExists(dir_ + "/tmp"));
  std::unique_ptr<SequentialFile> r;
  ASSERT_TRUE(Env::Default()->NewSequentialFile(dir_ + "/final", &r).ok());
  char buf[32];
  Slice result;
  ASSERT_TRUE(r->Read(sizeof(buf), &result, buf).ok());
  EXPECT_EQ(result.ToString(), "new-manifest");
}

TEST_F(EnvTest, GetFileSize) {
  std::unique_ptr<WritableFile> w;
  ASSERT_TRUE(Env::Default()->NewWritableFile(dir_ + "/f", &w).ok());
  ASSERT_TRUE(w->Append(std::string(1234, 'x')).ok());
  ASSERT_TRUE(w->Close().ok());
  uint64_t size = 0;
  ASSERT_TRUE(Env::Default()->GetFileSize(dir_ + "/f", &size).ok());
  EXPECT_EQ(size, 1234u);
  EXPECT_TRUE(
      Env::Default()->GetFileSize(dir_ + "/missing", &size).IsIOError());
}

}  // namespace
}  // namespace diffindex
