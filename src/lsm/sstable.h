// Immutable on-disk store (the HBase "HTable"/HFile analogue).
//
// File layout:
//   data block*      prefix-compressed entries with restart points (see
//                    lsm/block.h), followed by fixed32 masked crc32c
//   filter block     bloom filter over the distinct rows (RowOf) of the
//                    table's user keys + crc32c
//   index block      per data block: varint klen | last ikey |
//                    fixed64 offset | fixed64 size; + crc32c
//   footer (48 B)    index off/size, filter off/size, entry count, magic
//
// The magic is the format version. kTableMagicRowFilter files (the only
// kind written) key the filter by row, so a point get and a whole-row read
// consult the same filter. kTableMagicCellFilter files, written before
// that, key it by the whole user key: they still open, their filter
// serves point gets, and row reads treat it as "may match".
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
  std::vector<std::string> filter_rows_;  // distinct rows, ascending
  std::string smallest_user_key_;
  bool finished_ = false;
};

class SstIterator;

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
  std::unique_ptr<SstIterator> NewIterator() const;

  const SstMeta& meta() const { return meta_; }

  // False only if the table certainly holds no version of the key: it is
  // outside the table's key range or the filter rejects it.
  bool KeyMayMatch(const Slice& user_key) const;
  // False only if the table certainly holds no cell of `row`.
  bool RowMayMatch(const Slice& row) const;

  // Drops this table's blocks from the block cache. For a retired table
  // (compacted away): its keys carry this reader's id, so no new read can
  // look them up, yet they would hold their charge until LRU evicts them.
  void EraseCachedBlocks() const;

 private:
  friend class SstIterator;

  struct IndexEntry {
    std::string last_key;  // last internal key in the block
    uint64_t offset;
    uint64_t size;  // payload size excluding the trailing crc
  };

  SstReader(const LsmOptions& options, std::string path,
            uint64_t file_number);

  // Reads (via cache) the verified payload of the data block at index
  // position `block_idx`; it is index_[block_idx].size bytes long.
  Status ReadBlock(size_t block_idx, std::shared_ptr<const char[]>* block) const;

  bool FilterMayMatch(const Slice& key) const;

  // The block cache key of the block at file offset `offset`.
  std::string CacheKey(uint64_t offset) const;

  // Index position of the first block whose last key >= target, or
  // index_.size() if none.
  size_t FindBlock(const Slice& target_internal_key) const;

  const LsmOptions options_;
  const std::string path_;
  std::unique_ptr<RandomAccessFile> file_;
  // Names this reader's blocks in the shared cache: unique per process,
  // so a short key needs no path and a reopened file never sees another
  // reader's blocks.
  const uint64_t cache_id_;
  std::vector<IndexEntry> index_;
  std::string filter_;
  bool row_filter_ = true;  // filter keyed by row (vs. whole user key)
  SstMeta meta_;
};

// Iterator over one table in internal-key order. A seek that lands in the
// block already loaded reuses it, so a batch of ascending seeks (sorted
// keys, sorted rows) reads each block once.
class SstIterator final : public RecordIterator {
 public:
  // `table` must outlive the iterator.
  explicit SstIterator(const SstReader* table) : table_(table) {}

  bool Valid() const override {
    return block_iter_ != nullptr && block_iter_->Valid();
  }
  void SeekToFirst() override;
  void Seek(const Slice& target) override;
  void Next() override;
  Slice key() const override { return block_iter_->key(); }
  Slice value() const override { return block_iter_->value(); }
  Status status() const override;

  // SstReader::Get through this iterator, minus the filter check (the
  // caller has made it).
  LookupResult Get(const Slice& user_key, Timestamp read_ts);

  // Data blocks this iterator has read (cache hits and misses).
  uint64_t blocks_read() const { return blocks_read_; }

 private:
  // Positions on block `idx`, reusing it if it is the one loaded; false
  // at end of table or on a read error.
  bool LoadBlock(size_t idx);
  // If the current block is exhausted, advances to the next non-empty one.
  void SkipExhaustedBlocks();

  const SstReader* const table_;
  size_t block_idx_ = 0;
  std::unique_ptr<RecordIterator> block_iter_;
  Status status_;
  uint64_t blocks_read_ = 0;
  std::string target_;  // Get's seek key, reused across calls
};

// Builds an SSTable from all records produced by `iter` (already in
// internal-key order). On success fills *meta including file_number.
Status BuildSstFromIterator(const LsmOptions& options,
                            const std::string& path, uint64_t file_number,
                            RecordIterator* iter, SstMeta* meta);

}  // namespace diffindex

#endif  // DIFFINDEX_LSM_SSTABLE_H_
