// An undocumented failpoint kept on purpose, with the waiver explaining
// why it has no catalog row.

class ScratchInjector {
 public:
  Status Inject() {
    // ANALYZER_WAIVE(failpoint-names): scratch point for local debugging
    // sessions; it never ships in a documented chaos scenario.
    DIFFINDEX_FAILPOINT("fixture.scratch");
    return Status::OK();
  }
};
