// Per-RegionServer timestamp oracle. HBase stamps each put with a
// monotonically non-decreasing millisecond timestamp local to the region
// server (System.currentTimeMillis with a monotonic guard). Diff-Index's
// concurrency control hinges on these semantics: an index entry always
// carries the same timestamp as its base entry, and the old version is
// addressed at ts_new - delta.
//
// We use microsecond resolution so back-to-back puts in the simulation get
// distinct timestamps; kDelta is the paper's delta (1 time unit).

#ifndef DIFFINDEX_UTIL_TIMESTAMP_ORACLE_H_
#define DIFFINDEX_UTIL_TIMESTAMP_ORACLE_H_

#include <atomic>
#include <cstdint>

namespace diffindex {

using Timestamp = uint64_t;

// The "infinitely small time unit" delta of Algorithm 1. The paper uses
// 1ms (HBase's smallest unit); ours is 1 microsecond.
constexpr Timestamp kDelta = 1;

// Reserved value meaning "read the latest version".
constexpr Timestamp kMaxTimestamp = UINT64_MAX;

class TimestampOracle {
 public:
  TimestampOracle() : last_(0) {}

  // Returns a timestamp that is >= wall-clock microseconds and strictly
  // greater than any previously returned timestamp from this oracle. In a
  // DIFFINDEX_CHECK build under an active model-checker scheduler the
  // clock is logical instead: a fixed epoch, then +1 per call.
  Timestamp Next();

  // Wall-clock microseconds since epoch (not monotonic across oracles).
  static Timestamp NowMicros();

 private:
  std::atomic<Timestamp> last_;
};

}  // namespace diffindex

#endif  // DIFFINDEX_UTIL_TIMESTAMP_ORACLE_H_
