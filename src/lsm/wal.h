// Write-ahead log: length-and-checksum framed records on a single file.
//
// Framing: [masked crc32c of payload : fixed32][payload_len : fixed32][payload].
// A reader stops at the first short or corrupt record (torn tail after a
// crash), which mirrors HBase's WAL replay semantics: everything before
// the tear is recovered, the tear itself is discarded.
//
// The payload format is owned by the caller (the cluster layer logs
// serialized region edits; see cluster/region_server.h).

#ifndef DIFFINDEX_LSM_WAL_H_
#define DIFFINDEX_LSM_WAL_H_

#include <memory>
#include <string>

#include "util/env.h"
#include "util/slice.h"
#include "util/status.h"

namespace diffindex::wal {

enum class SyncMode {
  kNone,         // rely on OS buffering (cost modeled by LatencyModel)
  kEveryRecord,  // fdatasync after each append
  // Group commit: AddRecord itself never syncs (like kNone); the caller
  // batches concurrent writers into a shared Sync() covering all of their
  // appends (see RegionServer::GroupCommitSync).
  kGroupCommit,
};

class Writer {
 public:
  static Status Open(Env* env, const std::string& path, SyncMode sync_mode,
                     std::unique_ptr<Writer>* writer);

  Status AddRecord(const Slice& payload);
  Status Sync();
  Status Close();

  uint64_t bytes_written() const { return bytes_written_; }

 private:
  Writer(std::unique_ptr<WritableFile> file, SyncMode sync_mode)
      : file_(std::move(file)), sync_mode_(sync_mode) {}

  std::unique_ptr<WritableFile> file_;
  SyncMode sync_mode_;
  uint64_t bytes_written_ = 0;
  std::string record_;  // header + payload of the record being appended
};

class Reader {
 public:
  static Status Open(Env* env, const std::string& path,
                     std::unique_ptr<Reader>* reader);

  // Returns true and fills *payload for each intact record; returns false
  // at end of log (including a torn tail, reported via corruption()).
  bool ReadRecord(std::string* payload);

  // True if reading stopped because of a corrupt/torn record rather than
  // a clean end of file.
  bool corruption() const { return corruption_; }

 private:
  explicit Reader(std::unique_ptr<SequentialFile> file)
      : file_(std::move(file)) {}

  std::unique_ptr<SequentialFile> file_;
  bool corruption_ = false;
  bool eof_ = false;
};

}  // namespace diffindex::wal

#endif  // DIFFINDEX_LSM_WAL_H_
