#include "util/timestamp_oracle.h"

#include <chrono>

#ifdef DIFFINDEX_CHECK
#include "check/scheduler.h"
#endif

namespace diffindex {

namespace {

// Where Next() starts counting. Under the model checker it is a constant,
// so an oracle's timestamps run epoch, epoch + 1, ... in the order the
// schedule draws them: the values a run sees (and which versions sit
// exactly δ apart) depend only on its decisions, never on how fast the
// host ran it. Every schedule builds a fresh cluster, so the count
// restarts per schedule. Otherwise it is the wall clock.
Timestamp OracleClock() {
#ifdef DIFFINDEX_CHECK
  constexpr Timestamp kLogicalEpoch = 1'000'000;
  if (check::Scheduler::Active() != nullptr) return kLogicalEpoch;
#endif
  return TimestampOracle::NowMicros();
}

}  // namespace

Timestamp TimestampOracle::NowMicros() {
  return static_cast<Timestamp>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

Timestamp TimestampOracle::Next() {
  const Timestamp now = OracleClock();
  Timestamp prev = last_.load(std::memory_order_relaxed);
  for (;;) {
    const Timestamp candidate = now > prev ? now : prev + 1;
    if (last_.compare_exchange_weak(prev, candidate,
                                    std::memory_order_relaxed)) {
      return candidate;
    }
    // prev reloaded by compare_exchange_weak; retry.
  }
}

}  // namespace diffindex
