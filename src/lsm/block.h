// Data-block format with key prefix compression and restart points,
// matching the classic LevelDB/HFile layout:
//
//   entry   := varint32 shared | varint32 non_shared | varint32 value_len
//              | key_suffix[non_shared] | value[value_len]
//   block   := entry* | fixed32 restart_offset[num_restarts]
//              | fixed32 num_restarts
//
// Every `restart_interval`-th entry stores its full key (shared == 0);
// point lookups binary-search the restart array and scan at most one
// interval. Prefix compression matters here beyond disk savings: index
// tables store value ⊕ rowkey concatenations whose entries share long
// prefixes by construction.

#ifndef DIFFINDEX_LSM_BLOCK_H_
#define DIFFINDEX_LSM_BLOCK_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "lsm/iterator.h"
#include "lsm/record.h"
#include "util/slice.h"
#include "util/status.h"

namespace diffindex {

class BlockBuilder {
 public:
  explicit BlockBuilder(int restart_interval = 16);

  // Keys must arrive in InternalKeyComparator order.
  void Add(const Slice& key, const Slice& value);

  // Appends the restart array and returns the finished block contents.
  Slice Finish();

  void Reset();

  // Size of the block if Finish() were called now.
  size_t CurrentSizeEstimate() const;
  bool empty() const { return buffer_.empty(); }

 private:
  const int restart_interval_;
  std::string buffer_;
  std::vector<uint32_t> restarts_;
  int counter_ = 0;  // entries since last restart
  std::string last_key_;
  bool finished_ = false;
};

// Immutable parsed block; the contents are shared with the block cache.
class Block {
 public:
  // `contents` must outlive the Block (held via shared_ptr by callers).
  explicit Block(Slice contents);

  bool valid() const { return num_restarts_ >= 0; }

  // Iterator over the block in internal-key order. The returned iterator
  // holds `owner` alive (pass the cache handle).
  std::unique_ptr<RecordIterator> NewIterator(
      std::shared_ptr<const void> owner) const;

 private:
  class Iter;

  uint32_t RestartPoint(int index) const;

  Slice data_;        // entries only (restart array excluded)
  Slice full_;        // entries + restart array
  int num_restarts_ = -1;
};

}  // namespace diffindex

#endif  // DIFFINDEX_LSM_BLOCK_H_
