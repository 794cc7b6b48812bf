// Read-repair for sync-insert index reads: Algorithm 2's
// double-check-and-clean, the one implementation every index read runs.
//
// A hit survives iff its base row still carries the indexed value the
// entry advertises; stale entries are removed from `hits` and
// best-effort deleted from the index table at the entry's own timestamp
// (a tombstone there cannot mask any newer entry), all in one
// MultiPutBatch. The current base values come from one of two sources:
//
//   * the page's fetched rows — an uncovered scan page fetches every
//     hit's base row anyway (one kGetRow batch per server), so each hit
//     is checked against exactly the row version the page returns, at no
//     extra read;
//   * otherwise (hits-only reads: GetByIndex, RangeByIndex, and covered
//     pages) the index columns, grouped into one MultiGet per base
//     server; the per-server MultiGets run on the caller's pool when it
//     passes one.
//
// Table-2 accounting stays exact: each row read counts once. A MultiGet
// check of an n-column index is n base reads per hit; a check against a
// fetched row adds none to the fetch's one.

#ifndef DIFFINDEX_QUERY_READ_REPAIR_H_
#define DIFFINDEX_QUERY_READ_REPAIR_H_

#include <string>
#include <vector>

#include "cluster/client.h"
#include "core/index_codec.h"
#include "core/op_stats.h"

namespace diffindex {

// Double-check of `hits` against the base table. `rows` null: the
// verification columns are read with per-server MultiGets, each counting
// toward query.base_reads and OpStats::base_read; a non-null `pool` runs
// them in parallel when the hits span more than one server (see
// Client::MultiGet). `rows` non-null: it is parallel to *hits (the hits'
// fetched base rows) and is the verification source; survivors' rows are
// compacted alongside the hits. Exports query.repair.checked /
// query.repair.deleted counters and the query.repair.batch_size
// histogram. stats and pool may be null.
Status BatchedRepairHits(Client* client, ThreadPool* pool, OpStats* stats,
                         const std::string& base_table,
                         const IndexDescriptor& index,
                         std::vector<IndexHit>* hits,
                         std::vector<RowResult>* rows);

}  // namespace diffindex

#endif  // DIFFINDEX_QUERY_READ_REPAIR_H_
