// Read-repair for sync-insert index reads: Algorithm 2's
// double-check-and-clean, the one implementation every index read runs.
//
// All verification reads of a page are grouped into per-server MultiGet
// batches (one RPC per base server instead of K round trips), and all
// stale-entry tombstones ship as one MultiPutBatch. A hit survives iff
// its base row still carries the indexed value the entry advertises;
// stale entries are removed from `hits` and best-effort deleted from the
// index table at the entry's own timestamp (a tombstone there cannot
// mask any newer entry). Table-2 accounting stays exact: K checks of an
// n-column index are K*n base reads, however they travel.

#ifndef DIFFINDEX_QUERY_READ_REPAIR_H_
#define DIFFINDEX_QUERY_READ_REPAIR_H_

#include <string>
#include <vector>

#include "cluster/client.h"
#include "core/index_codec.h"
#include "core/op_stats.h"

namespace diffindex {

// Per-server-batched double-check of `hits` against the base table.
// Exports query.repair.checked / query.repair.deleted counters and the
// query.repair.batch_size histogram; every verification read counts
// toward query.base_reads. stats may be null.
Status BatchedRepairHits(Client* client, OpStats* stats,
                         const std::string& base_table,
                         const IndexDescriptor& index,
                         std::vector<IndexHit>* hits);

}  // namespace diffindex

#endif  // DIFFINDEX_QUERY_READ_REPAIR_H_
