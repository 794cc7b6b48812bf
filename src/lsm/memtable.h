// In-memory store of an LSM tree (the HBase "MemTable"). Writing into the
// LSM equals an insertion here; at capacity the whole table is flushed to
// an immutable disk store. Multi-versioned: an update adds a new version,
// a delete adds a tombstone (Section 2.1).

#ifndef DIFFINDEX_LSM_MEMTABLE_H_
#define DIFFINDEX_LSM_MEMTABLE_H_

#include <atomic>
#include <memory>
#include <string>

#include "lsm/arena.h"
#include "lsm/iterator.h"
#include "lsm/record.h"
#include "lsm/skiplist.h"
#include "util/slice.h"
#include "util/status.h"

namespace diffindex {

// Outcome of a point lookup against one source (memtable or disk store).
// kDeleted means a tombstone was the newest visible record: the key is
// definitively absent as of the read timestamp and older sources must not
// be consulted.
enum class LookupState { kNotPresent, kFound, kDeleted };

struct LookupResult {
  LookupState state = LookupState::kNotPresent;
  std::string value;
  Timestamp ts = 0;
  // Non-OK when the source could not be read (an SST block failed its
  // checksum, or a read came up short). state is then kNotPresent, which
  // says nothing about the key: the read must fail rather than fall
  // through to an older source's version.
  Status status;
};

class MemTable {
 public:
  MemTable();

  MemTable(const MemTable&) = delete;
  MemTable& operator=(const MemTable&) = delete;

  // Adds a version. Re-adding an identical (key, ts, type) is a no-op,
  // which gives the idempotency the AUQ recovery protocol relies on.
  // REQUIRES: external write serialization (region-level write lock).
  void Add(const Slice& user_key, Timestamp ts, ValueType type,
           const Slice& value);

  // Newest version of user_key with version-ts <= read_ts, if any.
  LookupResult Get(const Slice& user_key, Timestamp read_ts) const;

  // Iterator over internal records; remains valid as long as the memtable
  // is alive (flush keeps the memtable alive until the SSTable is done).
  std::unique_ptr<RecordIterator> NewIterator() const;

  size_t ApproximateMemoryUsage() const {
    return arena_.MemoryUsage();
  }
  // Bytes of key+value payload added; the flush trigger compares against
  // this (arena usage moves in whole blocks and would over-trigger).
  size_t DataBytes() const {
    return data_bytes_.load(std::memory_order_relaxed);
  }
  uint64_t NumEntries() const {
    return num_entries_.load(std::memory_order_relaxed);
  }
  // The largest version timestamp inserted; used by WAL roll-forward.
  Timestamp MaxTimestamp() const {
    return max_ts_.load(std::memory_order_relaxed);
  }

 private:
  // Entries are arena-allocated buffers:
  //   varint32 internal_key_len | internal_key | varint32 value_len | value
  struct KeyComparator {
    int operator()(const char* a, const char* b) const;
  };
  using Table = SkipList<const char*, KeyComparator>;

  class Iter;

  Arena arena_;
  Table table_;
  std::atomic<uint64_t> num_entries_{0};
  std::atomic<size_t> data_bytes_{0};
  std::atomic<Timestamp> max_ts_{0};
};

}  // namespace diffindex

#endif  // DIFFINDEX_LSM_MEMTABLE_H_
