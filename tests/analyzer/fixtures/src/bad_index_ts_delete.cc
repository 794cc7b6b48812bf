// Seeded index-ts violation: DeleteIndexEntry called with the bare edit
// timestamp. Section 4.3 requires old-entry deletes at `ts - kDelta` so
// a delete never shadows the index entry of a concurrent re-insert at
// the same ts.

#include "core/observers.h"

namespace diffindex {

Status FixtureBadIndexTsDelete(IndexManager* mgr, const IndexTask& task,
                               const std::string& old_row, bool fg) {
  DIFFINDEX_RETURN_NOT_OK(mgr->DeleteIndexEntry(
      task.index.index_table, old_row, task.ts - kDelta, fg));
  return mgr->DeleteIndexEntry(task.index.index_table, old_row, task.ts,
                               fg);  // violation
}

}  // namespace diffindex
