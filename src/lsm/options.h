// Tuning knobs for one LSM tree (one column family of one region).

#ifndef DIFFINDEX_LSM_OPTIONS_H_
#define DIFFINDEX_LSM_OPTIONS_H_

#include <cstddef>
#include <memory>

#include "obs/metrics.h"
#include "util/cache.h"
#include "util/env.h"
#include "util/latency_model.h"

namespace diffindex {

class Compactor;

struct LsmOptions {
  Env* env = Env::Default();

  // Injected device costs; nullptr disables injection.
  const LatencyModel* latency = nullptr;

  // Observability sink (may be null): flush/compaction counters,
  // durations and record counts land here (`lsm.*`).
  obs::MetricsRegistry* metrics = nullptr;

  // Shared across trees of one server so the cache size models the HBase
  // block cache (25% of heap in the paper's setup). May be nullptr.
  std::shared_ptr<BlockCache> block_cache;

  // The server's background compaction thread (lsm/compactor.h), shared
  // by its trees like the block cache. Null: a flush never compacts, and
  // CompactAll merges on the calling thread.
  Compactor* compactor = nullptr;

  // Flush the memtable once it holds this many bytes of key+value data.
  size_t memtable_flush_bytes = 4 << 20;

  // Target uncompressed size of one SSTable data block.
  size_t block_size = 4096;

  // Bloom filter bits per key; 0 disables the filter.
  int bloom_bits_per_key = 10;

  // Versions of a cell retained by a major compaction (HBase VERSIONS).
  // Diff-Index needs >= 2 so that RB(k, ts_new - delta) can still see the
  // previous version shortly after an update.
  int max_versions = 3;

  // A flush that leaves this many disk stores asks the compactor for a
  // major compaction: one merge of every disk store of the tree.
  int compaction_trigger = 6;
};

}  // namespace diffindex

#endif  // DIFFINDEX_LSM_OPTIONS_H_
