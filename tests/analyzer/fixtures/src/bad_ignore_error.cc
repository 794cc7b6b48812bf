// Seeded ignore-error violations: .IgnoreError() with no adjacent
// rationale comment (an empty trailing `//` does not count). The
// commented forms (trailing, line above, and multi-line statement) are
// all clean.

namespace diffindex {

Status Cleanup();

void FixtureIgnoreError() {
  Cleanup().IgnoreError();  // trailing rationale: best-effort cleanup

  // Rationale above the statement: failure only delays the next sweep.
  Cleanup().IgnoreError();

  // Rationale above a statement that wraps across lines, with an
  // initializer brace inside the call — still adjacent.
  CleanupWith(Options{/*retries=*/0})
      .IgnoreError();

  Cleanup().IgnoreError();  //

  Cleanup().IgnoreError();
}

}  // namespace diffindex
