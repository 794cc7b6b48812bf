// The blessed form of every construct the textual rules inspect, with
// the one waived factory `new`. Must stay clean.

#include "core/observers.h"
#include "fault/failpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/mutex.h"

namespace diffindex {

class FixtureClean {
 public:
  Status Run(IndexManager* mgr, const IndexTask& task,
             const std::string& new_row, const std::string& old_row,
             obs::MetricsRegistry* metrics, obs::TraceCollector* traces,
             bool fg) {
    DIFFINDEX_FAILPOINT("index.put");
    obs::SpanTimer span(metrics, traces, "aps.task");
    metrics->GetCounter("index.read")->Add();
    // A dynamic suffix on a documented wildcard row is fine.
    metrics->GetCounter("fault.injected." + task.index.index_table)->Add();
    MutexLock lock(mu_);
    auto owned =  // ANALYZER_WAIVE(naked-new): adopted by unique_ptr
        std::unique_ptr<int>(new int(7));
    (void)owned;
    DIFFINDEX_RETURN_NOT_OK(
        mgr->PutIndexEntry(task.index.index_table, new_row, task.ts, fg));
    return mgr->DeleteIndexEntry(task.index.index_table, old_row,
                                 task.ts - kDelta, fg);
  }

 private:
  Mutex mu_;
};

}  // namespace diffindex
