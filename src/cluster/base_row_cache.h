// Write-through base-row cache: serves the RB step of sync-full index
// maintenance (Algorithm 1's read of the old value at ts - δ) and the
// base-read legs of sync-insert read repair from memory instead of the
// LSM tree — the L(RB) term that dominates Equation 1.
//
// Per cell it remembers up to two versions:
//
//   v0 — the newest version this cache has seen for the cell;
//   v1 — v0's DIRECT predecessor (valid only while `prev_valid`).
//
// A lookup may answer from v0 only when `latest` certifies v0 really is
// the newest version in the tree (not merely the newest the cache saw),
// and from v1 only for read timestamps inside the half-open window
// [v1.ts, v0.ts) — exactly the RB(k, ts - δ) reads sync-full issues.
//
// `latest` is established by a verify read: on first sight of a cell the
// writer (holding the region's write_mu, so the write is serialized and
// still memtable-resident) reads the cell's newest version back from the
// tree and sets `latest` only if it matches the just-written timestamp.
// This stays sound even for region data adopted from another server —
// versions that never passed through this cache are visible to the verify
// read. Delete cells are never cached on first sight: a tree read cannot
// distinguish WHICH tombstone is newest.
//
// Consistency contract (see DESIGN.md "Base-row cache"): all NoteWrite
// calls for a cell happen under its region's write_mu and precede the
// put's acknowledgement, so a reader that starts after an acked write
// never sees an older version from the cache. The cache must be Clear()ed
// whenever region data changes hands outside the write path (region
// open/close/move/split, WAL replay) — RegionServer does this.

#ifndef DIFFINDEX_CLUSTER_BASE_ROW_CACHE_H_
#define DIFFINDEX_CLUSTER_BASE_ROW_CACHE_H_

#include <functional>
#include <memory>
#include <string>

#include "net/message.h"
#include "obs/metrics.h"
#include "util/cache.h"

namespace diffindex {

class BaseRowCache {
 public:
  // `metrics` may be null; exports counters `base_cache.hit` /
  // `base_cache.miss`.
  BaseRowCache(size_t capacity_bytes, obs::MetricsRegistry* metrics);

  enum class Result {
    kMiss,        // fall through to the LSM tree
    kHit,         // *value / *version_ts filled
    kHitDeleted,  // the visible version is a tombstone => NotFound
  };

  // Write-through update for one just-applied cell. MUST be called under
  // the owning region's write_mu, after the tree apply of the same cell.
  // `read_newest` reads the cell's newest version back from the tree
  // (return true + fill the version's timestamp, false if not found);
  // invoked only when the cache needs to (re)establish `latest`.
  void NoteWrite(const std::string& table, const Slice& row, const Cell& cell,
                 Timestamp ts,
                 const std::function<bool(Timestamp*)>& read_newest);

  // Point lookup of (table, row, column) at read_ts. On kHit, fills
  // *value and (if non-null) *version_ts. Never populates the cache.
  Result Lookup(const std::string& table, const Slice& row,
                const Slice& column, Timestamp read_ts, std::string* value,
                Timestamp* version_ts);

  // Drops everything. Called on region lifecycle events (open, close,
  // move, split) — any point where base data can change without passing
  // through NoteWrite.
  void Clear();

  size_t usage() const { return cache_.usage(); }

 private:
  struct Versioned {
    Timestamp ts = 0;
    bool deleted = false;
    std::string value;
  };
  struct Entry {
    bool latest = false;      // v0 is the newest version in the tree
    bool prev_valid = false;  // v1 is v0's direct predecessor
    Versioned v0;
    Versioned v1;
  };

  static std::string MakeKey(const std::string& table, const Slice& row,
                             const Slice& column);
  static std::string Encode(const Entry& entry);
  static bool Decode(const std::string& encoded, Entry* entry);
  void Store(const std::string& key, const Entry& entry);

  LruCache<const std::string> cache_;
  obs::Counter* hit_counter_ = nullptr;
  obs::Counter* miss_counter_ = nullptr;
};

}  // namespace diffindex

#endif  // DIFFINDEX_CLUSTER_BASE_ROW_CACHE_H_
