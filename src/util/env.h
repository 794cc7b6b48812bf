// File-system abstraction for the LSM engine. The paper's HBase persists
// WALs and HTables on HDFS; our Env maps each region server to its own
// directory tree on the local filesystem, which preserves the property the
// recovery protocol needs — files survive a (simulated) server crash and
// are readable by the server that takes over the regions.

#ifndef DIFFINDEX_UTIL_ENV_H_
#define DIFFINDEX_UTIL_ENV_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/slice.h"
#include "util/status.h"

namespace diffindex {

class WritableFile {
 public:
  virtual ~WritableFile() = default;
  virtual Status Append(const Slice& data) = 0;
  virtual Status Flush() = 0;
  virtual Status Sync() = 0;
  virtual Status Close() = 0;
};

// A file opened for random reads must not shrink while it is open (the
// files read this way, SSTables, are immutable): the default Env maps it,
// and touching a mapped page past a new end of file faults.
class RandomAccessFile {
 public:
  virtual ~RandomAccessFile() = default;
  // Reads up to n bytes at offset into scratch; *result points into scratch.
  virtual Status Read(uint64_t offset, size_t n, Slice* result,
                      char* scratch) const = 0;
  virtual uint64_t Size() const = 0;
};

class SequentialFile {
 public:
  virtual ~SequentialFile() = default;
  virtual Status Read(size_t n, Slice* result, char* scratch) = 0;
  virtual Status Skip(uint64_t n) = 0;
};

class Env {
 public:
  virtual ~Env() = default;

  static Env* Default();  // POSIX implementation; never deleted.

  virtual Status NewWritableFile(const std::string& fname,
                                 std::unique_ptr<WritableFile>* result) = 0;
  virtual Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) = 0;
  virtual Status NewSequentialFile(const std::string& fname,
                                   std::unique_ptr<SequentialFile>* result) = 0;

  virtual bool FileExists(const std::string& fname) = 0;
  virtual Status GetChildren(const std::string& dir,
                             std::vector<std::string>* result) = 0;
  virtual Status RemoveFile(const std::string& fname) = 0;
  virtual Status CreateDirIfMissing(const std::string& dirname) = 0;
  virtual Status RemoveDirRecursively(const std::string& dirname) = 0;
  virtual Status GetFileSize(const std::string& fname, uint64_t* size) = 0;
  virtual Status RenameFile(const std::string& src,
                            const std::string& target) = 0;
};

}  // namespace diffindex

#endif  // DIFFINDEX_UTIL_ENV_H_
