// An unlisted yield tag kept on purpose, with the waiver explaining why
// it has no table row.

class ScratchSeam {
 public:
  void Probe() {
    // ANALYZER_WAIVE(yield-tags): scratch seam for a local exploration
    // session; no committed model-checker config branches on it.
    CHECK_YIELD("fixture.scratch_seam");
  }
};
