// Seeded metric-names violation: opens a SpanTimer on a stage missing
// from the corpus DESIGN.md span-stage list; the documented stage beside
// it is clean.

#include "obs/trace.h"

namespace diffindex {

void FixtureBadSpanStage(obs::MetricsRegistry* m, obs::TraceCollector* t) {
  obs::SpanTimer ok(m, t, "rs.put");             // documented: clean
  obs::SpanTimer bad(m, t, "rs.secret_stage");   // violation
}

}  // namespace diffindex
