// A shifted index-put timestamp, suppressed by an in-source waiver with
// a written rationale.

Status FixtureWaivedIndexTs(IndexManager* mgr, const IndexTask& task,
                            const std::string& new_row, bool fg) {
  // ANALYZER_WAIVE(index-ts): fixture-only shifted put proving the
  // waiver grammar; no real index path writes this entry.
  return mgr->PutIndexEntry(task.index.index_table, new_row,
                            task.ts - kDelta, fg);
}
