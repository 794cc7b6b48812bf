// Session consistency (Section 5.2): the client library tracks, per
// session, the index entries and delete markers its own writes *should*
// produce, in private in-memory tables. Session-consistent index reads
// merge the server's (possibly stale) results with the private state, so
// a session always reads its own writes even under async-session.
//
// Sessions expire after an idle limit, and a per-session memory cap
// auto-disables merging (degrading the session to plain async-simple
// semantics) instead of running out of memory — both behaviors described
// in the paper.

#ifndef DIFFINDEX_CORE_SESSION_H_
#define DIFFINDEX_CORE_SESSION_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/index_codec.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/timestamp_oracle.h"

namespace diffindex {

using SessionId = uint64_t;

struct SessionOptions {
  // Idle expiry (the paper uses 30 minutes; tests shrink it).
  uint64_t idle_limit_micros = 30ull * 60 * 1000 * 1000;
  // Per-session private-table cap; exceeding it disables the session's
  // merging rather than OOM-ing.
  size_t max_memory_bytes = 4 << 20;
};

class SessionManager {
 public:
  explicit SessionManager(const SessionOptions& options = SessionOptions())
      : options_(options) {}

  SessionId CreateSession();
  // Forgets the session and garbage-collects its private tables.
  void EndSession(SessionId id);

  // Records one private index mutation produced by a session write:
  // is_delete marks a delete-marker for a superseded entry.
  // Returns SessionExpired if the session is unknown/expired.
  Status RecordEntry(SessionId id, const std::string& index_table,
                     const std::string& index_row, Timestamp ts,
                     bool is_delete);

  // Merges private state into `hits` for a lookup on [value_lo, value_hi)
  // of `index_table`: removes hits superseded by private delete-markers,
  // adds private entries the server has not caught up with. `degraded` is
  // set if the session overflowed its memory cap (merge skipped).
  Status MergeHits(SessionId id, const std::string& index_table,
                   const std::string& range_start,
                   const std::string& range_end, std::vector<IndexHit>* hits,
                   bool* degraded);

  // Appends to `rows` the base row of every private entry MergeHits could
  // add on [range_start, range_end) — what an uncovered scan page fetches
  // alongside its server hits, so merged hits' rows come from the same
  // batch. Appends nothing for a degraded session.
  Status PrivateRows(SessionId id, const std::string& index_table,
                     const std::string& range_start,
                     const std::string& range_end,
                     std::vector<std::string>* rows);

  // Expires idle sessions; returns how many were collected.
  size_t CollectExpired();

  size_t live_sessions() const;
  bool IsLive(SessionId id) const;
  size_t MemoryUsage(SessionId id) const;

 private:
  struct PrivateEntry {
    Timestamp ts = 0;
    bool is_delete = false;
  };
  struct Session {
    uint64_t last_active_micros = 0;
    bool degraded = false;  // memory cap exceeded: merging disabled
    size_t memory_bytes = 0;
    // index_table -> index_row -> newest private mutation
    std::map<std::string, std::map<std::string, PrivateEntry>> tables;
  };

  Status TouchLocked(SessionId id, Session** session) REQUIRES(mu_);

  const SessionOptions options_;
  mutable Mutex mu_;
  std::map<SessionId, Session> sessions_ GUARDED_BY(mu_);
  uint64_t next_id_ GUARDED_BY(mu_) = 1;
};

}  // namespace diffindex

#endif  // DIFFINDEX_CORE_SESSION_H_
