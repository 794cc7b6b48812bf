// A raw std primitive, suppressed by an in-source waiver with a written
// rationale.

#include <mutex>

class WaivedRawMutex {
 private:
  std::mutex mu_;  // ANALYZER_WAIVE(raw-mutex): fixture-only raw member
};
