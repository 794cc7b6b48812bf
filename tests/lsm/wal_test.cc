#include "lsm/wal.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <unistd.h>

#include "util/random.h"

namespace diffindex {
namespace {

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "wal_test_" +
           std::to_string(getpid()) + "_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    ASSERT_TRUE(Env::Default()->CreateDirIfMissing(dir_).ok());
    path_ = dir_ + "/wal.log";
  }

  void TearDown() override {
    (void)Env::Default()->RemoveDirRecursively(dir_);
  }

  std::string dir_;
  std::string path_;
};

TEST_F(WalTest, WriteReadRoundTrip) {
  std::unique_ptr<wal::Writer> writer;
  ASSERT_TRUE(wal::Writer::Open(Env::Default(), path_, wal::SyncMode::kNone,
                                &writer)
                  .ok());
  ASSERT_TRUE(writer->AddRecord("record-1").ok());
  ASSERT_TRUE(writer->AddRecord("record-2 is longer").ok());
  ASSERT_TRUE(writer->AddRecord("").ok());  // empty payloads are legal
  ASSERT_TRUE(writer->Close().ok());

  std::unique_ptr<wal::Reader> reader;
  ASSERT_TRUE(wal::Reader::Open(Env::Default(), path_, &reader).ok());
  std::string payload;
  ASSERT_TRUE(reader->ReadRecord(&payload));
  EXPECT_EQ(payload, "record-1");
  ASSERT_TRUE(reader->ReadRecord(&payload));
  EXPECT_EQ(payload, "record-2 is longer");
  ASSERT_TRUE(reader->ReadRecord(&payload));
  EXPECT_EQ(payload, "");
  EXPECT_FALSE(reader->ReadRecord(&payload));
  EXPECT_FALSE(reader->corruption());
}

TEST_F(WalTest, ManyRecordsRoundTrip) {
  std::unique_ptr<wal::Writer> writer;
  ASSERT_TRUE(wal::Writer::Open(Env::Default(), path_, wal::SyncMode::kNone,
                                &writer)
                  .ok());
  Random rng(99);
  std::vector<std::string> payloads;
  for (int i = 0; i < 1000; i++) {
    payloads.push_back(rng.RandomBytes(rng.Uniform(200)));
    ASSERT_TRUE(writer->AddRecord(payloads.back()).ok());
  }
  ASSERT_TRUE(writer->Close().ok());

  std::unique_ptr<wal::Reader> reader;
  ASSERT_TRUE(wal::Reader::Open(Env::Default(), path_, &reader).ok());
  std::string payload;
  for (const auto& expected : payloads) {
    ASSERT_TRUE(reader->ReadRecord(&payload));
    ASSERT_EQ(payload, expected);
  }
  EXPECT_FALSE(reader->ReadRecord(&payload));
}

TEST_F(WalTest, TornTailStopsReplayKeepsPrefix) {
  std::unique_ptr<wal::Writer> writer;
  ASSERT_TRUE(wal::Writer::Open(Env::Default(), path_, wal::SyncMode::kNone,
                                &writer)
                  .ok());
  ASSERT_TRUE(writer->AddRecord("intact-1").ok());
  ASSERT_TRUE(writer->AddRecord("intact-2").ok());
  ASSERT_TRUE(writer->AddRecord("will-be-torn-away").ok());
  ASSERT_TRUE(writer->Close().ok());

  // Simulate a crash mid-append: truncate inside the last record.
  uint64_t size;
  ASSERT_TRUE(Env::Default()->GetFileSize(path_, &size).ok());
  std::filesystem::resize_file(path_, size - 5);

  std::unique_ptr<wal::Reader> reader;
  ASSERT_TRUE(wal::Reader::Open(Env::Default(), path_, &reader).ok());
  std::string payload;
  ASSERT_TRUE(reader->ReadRecord(&payload));
  EXPECT_EQ(payload, "intact-1");
  ASSERT_TRUE(reader->ReadRecord(&payload));
  EXPECT_EQ(payload, "intact-2");
  EXPECT_FALSE(reader->ReadRecord(&payload));
  EXPECT_TRUE(reader->corruption());
}

TEST_F(WalTest, CorruptedByteDetected) {
  std::unique_ptr<wal::Writer> writer;
  ASSERT_TRUE(wal::Writer::Open(Env::Default(), path_, wal::SyncMode::kNone,
                                &writer)
                  .ok());
  ASSERT_TRUE(writer->AddRecord("good").ok());
  ASSERT_TRUE(writer->AddRecord("to-be-corrupted").ok());
  ASSERT_TRUE(writer->Close().ok());

  // Flip a byte inside the second record's payload.
  {
    FILE* f = fopen(path_.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    fseek(f, -3, SEEK_END);
    int c = fgetc(f);
    fseek(f, -3, SEEK_END);
    fputc(c ^ 0xff, f);
    fclose(f);
  }

  std::unique_ptr<wal::Reader> reader;
  ASSERT_TRUE(wal::Reader::Open(Env::Default(), path_, &reader).ok());
  std::string payload;
  ASSERT_TRUE(reader->ReadRecord(&payload));
  EXPECT_EQ(payload, "good");
  EXPECT_FALSE(reader->ReadRecord(&payload));
  EXPECT_TRUE(reader->corruption());
}

TEST_F(WalTest, EmptyLogIsCleanEnd) {
  std::unique_ptr<wal::Writer> writer;
  ASSERT_TRUE(wal::Writer::Open(Env::Default(), path_, wal::SyncMode::kNone,
                                &writer)
                  .ok());
  ASSERT_TRUE(writer->Close().ok());
  std::unique_ptr<wal::Reader> reader;
  ASSERT_TRUE(wal::Reader::Open(Env::Default(), path_, &reader).ok());
  std::string payload;
  EXPECT_FALSE(reader->ReadRecord(&payload));
  EXPECT_FALSE(reader->corruption());
}

TEST_F(WalTest, SyncEveryRecordMode) {
  std::unique_ptr<wal::Writer> writer;
  ASSERT_TRUE(wal::Writer::Open(Env::Default(), path_,
                                wal::SyncMode::kEveryRecord, &writer)
                  .ok());
  ASSERT_TRUE(writer->AddRecord("durable").ok());
  ASSERT_TRUE(writer->Close().ok());
  std::unique_ptr<wal::Reader> reader;
  ASSERT_TRUE(wal::Reader::Open(Env::Default(), path_, &reader).ok());
  std::string payload;
  ASSERT_TRUE(reader->ReadRecord(&payload));
  EXPECT_EQ(payload, "durable");
}

}  // namespace
}  // namespace diffindex
