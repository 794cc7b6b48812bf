// Immutable on-disk store (the HBase "HTable"/HFile analogue).
//
// File layout:
//   data block*      prefix-compressed entries with restart points (see
//                    lsm/block.h), followed by fixed32 masked crc32c
//   filter block     bloom filter over distinct user keys + crc32c
//   index block      per data block: varint klen | last ikey |
//                    fixed64 offset | fixed64 size; + crc32c
//   footer (48 B)    index off/size, filter off/size, entry count, magic
//
// The index and filter are loaded at open (modeling the HFile index and
// BloomFilter the paper counts into its 1.5 KB/row overhead); data blocks
// go through the shared block cache, and a cache miss pays the injected
// random-I/O cost — this is what makes an LSM read "many times slower than
// a write".

#ifndef DIFFINDEX_LSM_SSTABLE_H_
#define DIFFINDEX_LSM_SSTABLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "lsm/block.h"
#include "lsm/iterator.h"
#include "lsm/memtable.h"
#include "lsm/options.h"
#include "lsm/record.h"
#include "util/env.h"
#include "util/status.h"

namespace diffindex {

struct SstMeta {
  uint64_t file_number = 0;
  uint64_t file_size = 0;
  uint64_t num_entries = 0;
  std::string smallest_user_key;
  std::string largest_user_key;
};

class SstBuilder {
 public:
  SstBuilder(const LsmOptions& options, std::unique_ptr<WritableFile> file);
  ~SstBuilder();

  // Records must arrive in InternalKeyComparator order.
  Status Add(const Slice& internal_key, const Slice& value);

  // Writes filter, index and footer; fills *meta (except file_number).
  Status Finish(SstMeta* meta);

  // Abandons the table (caller removes the file).
  void Abandon() { finished_ = true; }

 private:
  Status FlushDataBlock();

  const LsmOptions options_;
  std::unique_ptr<WritableFile> file_;
  BlockBuilder data_block_;
  std::string index_block_;
  std::string last_key_;   // last internal key added (for index entries)
  uint64_t offset_ = 0;
  uint64_t num_entries_ = 0;
  uint64_t block_first_offset_ = 0;
  std::vector<std::string> filter_user_keys_;  // distinct user keys
  std::string smallest_user_key_;
  std::string largest_user_key_;
  bool finished_ = false;
};

class SstReader {
 public:
  // Loads footer, index and filter into memory.
  static Status Open(const LsmOptions& options, const std::string& path,
                     uint64_t file_number,
                     std::shared_ptr<SstReader>* reader);

  // Newest version of user_key with ts <= read_ts in this table. A block
  // that fails to read or verify is reported in the result's status.
  LookupResult Get(const Slice& user_key, Timestamp read_ts) const;

  // Full-table iterator in internal key order.
  std::unique_ptr<RecordIterator> NewIterator() const;

  const SstMeta& meta() const { return meta_; }

  // True if the bloom filter admits the key (or no filter present).
  bool KeyMayMatch(const Slice& user_key) const;

 private:
  class Iter;
  struct IndexEntry {
    std::string last_key;  // last internal key in the block
    uint64_t offset;
    uint64_t size;  // payload size excluding the trailing crc
  };

  SstReader(const LsmOptions& options, std::string path, uint64_t file_number)
      : options_(options), path_(std::move(path)) {
    meta_.file_number = file_number;
  }

  // Reads (via cache) the data block at index position `block_idx`.
  Status ReadBlock(size_t block_idx,
                   std::shared_ptr<const std::string>* block) const;

  // Index position of the first block whose last key >= target, or
  // index_.size() if none.
  size_t FindBlock(const Slice& target_internal_key) const;

  const LsmOptions options_;
  const std::string path_;
  std::unique_ptr<RandomAccessFile> file_;
  std::vector<IndexEntry> index_;
  std::string filter_;
  SstMeta meta_;
};

// Builds an SSTable from all records produced by `iter` (already in
// internal-key order). On success fills *meta including file_number.
Status BuildSstFromIterator(const LsmOptions& options,
                            const std::string& path, uint64_t file_number,
                            RecordIterator* iter, SstMeta* meta);

}  // namespace diffindex

#endif  // DIFFINDEX_LSM_SSTABLE_H_
