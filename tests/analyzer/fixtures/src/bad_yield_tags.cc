// Seeded yield-tags violation: a model-checker seam whose tag has no row
// in the corpus DESIGN.md yield tag table.

class MiniLog {
 public:
  void Append() {
    CHECK_YIELD("fixture.append");    // listed: clean
    CHECK_YIELD("fixture.unlisted");  // violation
  }
};
