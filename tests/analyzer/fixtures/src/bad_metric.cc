// Seeded metric-names violation: creates an instrument whose name has
// no row in the corpus DESIGN.md metric names table. A fully dynamic
// name has no literal to check and is skipped.

#include "obs/metrics.h"

namespace diffindex {

void FixtureBadMetric(obs::MetricsRegistry* metrics) {
  metrics->GetCounter("index.read")->Add();       // documented: clean
  metrics->GetCounter("index.mystery")->Add();    // violation
  metrics->GetCounter(DynamicName());             // no literal: skipped
}

}  // namespace diffindex
