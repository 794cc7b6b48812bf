// Seeded failpoint-names violation: consults a failpoint that has no
// row in the corpus DESIGN.md failpoint catalog. Both names are armed in
// tests/armed_fixture_test.cc, so only the catalog rule fires.

#include "fault/failpoint.h"

namespace diffindex {

void FixtureBadFailpoint() {
  DIFFINDEX_FAILPOINT("wal.append");        // documented: clean
  DIFFINDEX_FAILPOINT("wal.undocumented");  // violation
}

}  // namespace diffindex
