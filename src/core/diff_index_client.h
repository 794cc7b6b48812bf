// DiffIndexClient: the public client API of the library — base-table
// CRUD, index reads (getByIndex / range queries), and the session-
// consistent variants of Section 5.2:
//
//   session s = get_session()
//   put(s, table, key, colname, colvalue)
//   getFromIndex(s, table, colname, colvalue)
//   end_session(s)
//
// Index reads on a global index run on the client's ReadEngine
// (query/engine.h), the one index read path: a plain index scan for
// sync-full/async, double-check-and-clean (Algorithm 2) for sync-insert,
// session-cache merge for reads made through a session. A local index is
// read by broadcasting to every region of the base table.

#ifndef DIFFINDEX_CORE_DIFF_INDEX_CLIENT_H_
#define DIFFINDEX_CORE_DIFF_INDEX_CLIENT_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/client.h"
#include "core/index_codec.h"
#include "core/op_stats.h"
#include "core/session.h"
#include "obs/trace.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace diffindex {

class ReadEngine;

class DiffIndexClient {
 public:
  // stats may be null.
  DiffIndexClient(std::shared_ptr<Client> client, OpStats* stats = nullptr,
                  const SessionOptions& session_options = SessionOptions());
  ~DiffIndexClient();

  // ---- Base table operations ----

  Status Put(const std::string& table, const std::string& row,
             std::vector<Cell> cells);
  Status PutColumn(const std::string& table, const std::string& row,
                   const std::string& column, const std::string& value);
  Status DeleteColumns(const std::string& table, const std::string& row,
                       const std::vector<std::string>& columns);
  Status Get(const std::string& table, const std::string& row,
             const std::string& column, std::string* value);
  Status GetRow(const std::string& table, const std::string& row,
                RowResult* result);

  // ---- Index reads ----

  // Base rowkeys whose indexed column equals value_encoded (use the
  // index_codec Encode*IndexValue helpers for typed columns). Corruption
  // if the scanned index range holds an undecodable index row.
  Status GetByIndex(const std::string& table, const std::string& index_name,
                    const std::string& value_encoded,
                    std::vector<IndexHit>* hits);

  // Rowkeys with indexed value in [lo, hi); limit 0 = unlimited.
  Status RangeByIndex(const std::string& table, const std::string& index_name,
                      const std::string& value_lo_encoded,
                      const std::string& value_hi_encoded, uint32_t limit,
                      std::vector<IndexHit>* hits);

  // The base rows whose indexed column equals value_encoded: the
  // QueryRangeByIndex of [v, v + '\0') with every column.
  Status QueryByIndex(const std::string& table, const std::string& index_name,
                      const std::string& value_encoded,
                      std::vector<ScannedRow>* rows);

  // The base rows with indexed value in [lo, hi) ("" = open), trimmed to
  // `projection` (empty = all columns), in index order. A global index
  // reads through ReadEngine::ScanByIndex: a covered projection comes
  // from the index entries alone, and under sync-insert each hit is
  // checked against the row version returned for it, so K hits cost K
  // base reads. A local index is broadcast-scanned, then its rows are
  // fetched with one GetRows. Counts one Table-2 index read.
  Status QueryRangeByIndex(const std::string& table,
                           const std::string& index_name,
                           const std::string& value_lo_encoded,
                           const std::string& value_hi_encoded,
                           const std::vector<std::string>& projection,
                           std::vector<ScannedRow>* rows);

  // ---- Session consistency ----

  SessionId GetSession();
  void EndSession(SessionId session);

  // Put whose effects this session is guaranteed to see in its own
  // subsequent index reads.
  Status SessionPut(SessionId session, const std::string& table,
                    const std::string& row, std::vector<Cell> cells);

  // Index read that merges this session's private writes.
  Status SessionGetByIndex(SessionId session, const std::string& table,
                           const std::string& index_name,
                           const std::string& value_encoded,
                           std::vector<IndexHit>* hits);

  // Session-consistent range query over [lo, hi) of encoded values.
  Status SessionRangeByIndex(SessionId session, const std::string& table,
                             const std::string& index_name,
                             const std::string& value_lo_encoded,
                             const std::string& value_hi_encoded,
                             std::vector<IndexHit>* hits);

  // Looks up the index descriptor in the cached catalog.
  Status FindIndex(const std::string& table, const std::string& index_name,
                   IndexDescriptor* index);

  // ---- Accessors ----

  Client* raw_client() { return client_.get(); }
  // The read engine behind the index reads; also serves paged scans
  // (query/engine.h) that share its leg pool.
  ReadEngine* read_engine() { return engine_.get(); }
  SessionManager* sessions() { return &sessions_; }
  OpStats* stats() { return stats_; }

 private:
  // Scheme tag for span names ("sync-full", ...), from the table's first
  // index; cached per table (one catalog lookup, not one per op). Empty
  // when the table is unknown or unindexed.
  std::string SchemeTag(const std::string& table);

  // Context for one client-level op: a child of the ambient context when
  // one is active (e.g. inside a StalenessProbe cycle), else a fresh root.
  obs::TraceContext OpContext(const char* op, const std::string& table);

  // The one index read behind GetByIndex, RangeByIndex and their session
  // variants: hits with encoded value in [lo, hi) (hi "" = open), at most
  // `limit` scanned entries (0 = unlimited), merged with `session`'s
  // private entries when non-zero. Counts one Table-2 index read.
  Status ReadIndex(const std::string& table, const std::string& index_name,
                   const std::string& value_lo_encoded,
                   const std::string& value_hi_encoded, uint32_t limit,
                   SessionId session, std::vector<IndexHit>* hits);

  // The one row read behind QueryByIndex and QueryRangeByIndex.
  Status ReadRows(const std::string& table, const std::string& index_name,
                  const std::string& value_lo_encoded,
                  const std::string& value_hi_encoded,
                  const std::vector<std::string>& projection,
                  std::vector<ScannedRow>* rows);

  // A local index's entries live inside the base regions: one scan per
  // region of the base table, merged into index order.
  Status BroadcastLocalScan(const IndexDescriptor& index,
                            const std::string& table,
                            const std::string& value_lo_encoded,
                            const std::string& value_hi_encoded,
                            uint32_t limit, std::vector<IndexHit>* hits);

  std::shared_ptr<Client> client_;
  OpStats* const stats_;
  SessionManager sessions_;
  // Runs the global-index reads (see ReadIndex).
  std::unique_ptr<ReadEngine> engine_;

  // Observability sinks inherited from the underlying Client (may be
  // null).
  obs::MetricsRegistry* const metrics_;
  obs::TraceCollector* const traces_;

  Mutex scheme_mu_;
  std::map<std::string, std::string> scheme_by_table_ GUARDED_BY(scheme_mu_);
};

}  // namespace diffindex

#endif  // DIFFINDEX_CORE_DIFF_INDEX_CLIENT_H_
