#include "lsm/wal.h"

#include <vector>

#include "check/yield.h"
#include "fault/failpoint.h"
#include "util/coding.h"
#include "util/crc32c.h"

namespace diffindex::wal {

constexpr size_t kHeaderSize = 8;  // crc32 (4) + length (4)

Status Writer::Open(Env* env, const std::string& path, SyncMode sync_mode,
                    std::unique_ptr<Writer>* writer) {
  std::unique_ptr<WritableFile> file;
  DIFFINDEX_RETURN_NOT_OK(env->NewWritableFile(path, &file));
  // ANALYZER_WAIVE(naked-new): private-ctor factory
  writer->reset(new Writer(std::move(file), sync_mode));
  return Status::OK();
}

Status Writer::AddRecord(const Slice& payload) {
  // Decision point before the record hits the log: a group-commit leader
  // can be elected (or a flush can roll the log) between the caller's
  // ticket grab and the append landing.
  CHECK_YIELD("wal.append");
  DIFFINDEX_FAILPOINT("wal.append");
  // Header and payload leave in one write: a record costs one syscall.
  record_.clear();
  PutFixed32(&record_,
             crc32c::Mask(crc32c::Value(payload.data(), payload.size())));
  PutFixed32(&record_, static_cast<uint32_t>(payload.size()));
  record_.append(payload.data(), payload.size());
  DIFFINDEX_RETURN_NOT_OK(file_->Append(record_));
  bytes_written_ += kHeaderSize + payload.size();
  if (sync_mode_ == SyncMode::kEveryRecord) {
    DIFFINDEX_FAILPOINT("wal.sync");
    DIFFINDEX_RETURN_NOT_OK(file_->Sync());
  }
  return Status::OK();
}

Status Writer::Sync() {
  // The group-commit leader's durability point: followers whose appends
  // landed before this yield are covered by the sync that follows it.
  CHECK_YIELD("wal.sync");
  DIFFINDEX_FAILPOINT("wal.sync");
  return file_->Sync();
}

Status Writer::Close() { return file_->Close(); }

Status Reader::Open(Env* env, const std::string& path,
                    std::unique_ptr<Reader>* reader) {
  std::unique_ptr<SequentialFile> file;
  DIFFINDEX_RETURN_NOT_OK(env->NewSequentialFile(path, &file));
  // ANALYZER_WAIVE(naked-new): private-ctor factory
  reader->reset(new Reader(std::move(file)));
  return Status::OK();
}

bool Reader::ReadRecord(std::string* payload) {
  if (eof_) return false;

  char header[kHeaderSize];
  Slice header_slice;
  if (!file_->Read(kHeaderSize, &header_slice, header).ok() ||
      header_slice.size() < kHeaderSize) {
    eof_ = true;
    corruption_ = !header_slice.empty();  // partial header = torn record
    return false;
  }
  const uint32_t expected_crc = crc32c::Unmask(DecodeFixed32(header));
  const uint32_t length = DecodeFixed32(header + 4);

  std::vector<char> buf(length);
  Slice body;
  if (!file_->Read(length, &body, buf.data()).ok() || body.size() < length) {
    eof_ = true;
    corruption_ = true;  // torn body
    return false;
  }
  if (crc32c::Value(body.data(), body.size()) != expected_crc) {
    eof_ = true;
    corruption_ = true;
    return false;
  }
  payload->assign(body.data(), body.size());
  return true;
}

}  // namespace diffindex::wal
