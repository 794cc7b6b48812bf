// Seeded index-ts violation: PutIndexEntry called with a shifted
// timestamp, breaking the Section 4.3 ordering rule (index entries live
// at the base edit's ts; only old-entry deletes are shifted down by
// kDelta).

#include "core/observers.h"

namespace diffindex {

Status FixtureBadIndexTsPut(IndexManager* mgr, const IndexTask& task,
                            const std::string& new_row, bool fg) {
  DIFFINDEX_RETURN_NOT_OK(
      mgr->PutIndexEntry(task.index.index_table, new_row, task.ts, fg));
  return mgr->PutIndexEntry(task.index.index_table, new_row,
                            task.ts - kDelta, fg);  // violation
}

}  // namespace diffindex
