// A src/lsm/ file including a core/ header, suppressed by an in-source
// waiver with a written rationale.

// ANALYZER_WAIVE(lsm-layering): fixture-only include proving the waiver
// grammar; the real storage engine includes no core/ header.
#include "core/observers.h"
