// Closed-loop workload driver (the YCSB stand-in of Section 8.1): N
// client threads each continuously submit requests — "a completed request
// will be followed up by another one immediately" — optionally paced to a
// target transaction rate (Figure 11 sweeps TPS directly). Latencies are
// recorded per operation into histograms, and (windowed) into a per-run
// SLO time-series so sustained-load stalls stay visible (obs/slo.h).

#ifndef DIFFINDEX_WORKLOAD_RUNNER_H_
#define DIFFINDEX_WORKLOAD_RUNNER_H_

#include <atomic>
#include <chrono>
#include <memory>
#include <vector>

#include "cluster/cluster.h"
#include "obs/slo.h"
#include "util/histogram.h"
#include "workload/generators.h"
#include "workload/item_table.h"

namespace diffindex {

class DiffIndexClient;
class ReadEngine;

enum class WorkloadOp {
  kUpdateTitle,     // write a new item_title version (1 indexed column)
  kUpdateFullRow,   // rewrite the whole ~1 KB row (flush-pressure load)
  kReadIndexExact,  // getByIndex(item_title == current title): 1 row
  kRangeIndexPrice, // range query over the item_price index
  kBasePutNoIndex,  // raw base put (the "no-index" baseline of Figure 7)
  kScanIndexRange,  // paged scatter-gather scan over the item_price index
                    // through the read engine (query/engine.h)
  kScanTableRange,  // bounded base-table row scan across region boundaries
};

struct RunnerOptions {
  WorkloadOp op = WorkloadOp::kUpdateTitle;
  // Mixed mode: when non-empty, every iteration draws its operation from
  // this weighted mix and `op` is ignored (YCSB-style read/write/scan
  // blends for the sustained-load harness).
  struct MixEntry {
    WorkloadOp op = WorkloadOp::kUpdateTitle;
    double weight = 1.0;
  };
  std::vector<MixEntry> mix;
  int threads = 4;
  // Stop after this many total operations (whichever of ops/duration is
  // hit first; 0 disables that bound).
  uint64_t total_operations = 10000;
  uint64_t max_duration_ms = 0;
  KeyDistribution distribution = KeyDistribution::kUniform;
  // kHotspot shape (see workload/generators.h).
  double hotspot_set_fraction = 0.2;
  double hotspot_op_fraction = 0.8;
  // 0 = closed loop at full speed; otherwise pace to ~this many
  // transactions per second across all threads.
  double target_tps = 0;
  // SLO time-series window; 0 disables windowing (RunnerResult.windows
  // stays empty and only the whole-run histogram is filled — the old,
  // stall-masking behavior, kept for micro-runs shorter than a window).
  uint64_t slo_window_micros = 1000000;
  // Per-window p99 objective fed to the SLO tracker (`slo.violations`);
  // 0 = track the series without judging it.
  uint64_t slo_p99_target_micros = 0;
  // Price-range width for kRangeIndexPrice / kScanIndexRange
  // (selectivity = width / price_domain).
  uint64_t price_range_width = 1000;
  // kScanIndexRange knobs, mapped onto ScanOptions (query/engine.h).
  uint32_t scan_page_entries = 128;
  int scan_parallel = 4;
  bool scan_covered = false;
  // Rows per kScanTableRange scan.
  uint32_t scan_rows = 64;
  uint64_t seed = 1;
};

struct RunnerResult {
  uint64_t operations = 0;
  uint64_t errors = 0;
  double elapsed_seconds = 0;
  double tps = 0;
  std::unique_ptr<Histogram> latency = std::make_unique<Histogram>();
  // Windowed latency time-series (empty when slo_window_micros == 0):
  // per-window p50/p99/p999, so stalls are not averaged away by the
  // whole-run histogram above.
  std::vector<obs::SloWindow> windows;
};

class WorkloadRunner {
 public:
  WorkloadRunner(Cluster* cluster, const ItemTable* items,
                 const RunnerOptions& options)
      : cluster_(cluster), items_(items), options_(options) {}

  // Multi-threaded load of the item table (version 0 rows).
  Status LoadItems(int load_threads = 8);

  // Runs the configured operation mix; fills *result.
  Status Run(RunnerResult* result) { return RunWith(options_, result); }

  // Runs with override options but the same item-version state (e.g. an
  // update pass followed by a read pass against the updated titles).
  Status RunWith(const RunnerOptions& options, RunnerResult* result);

  // Current title version of an item (used by readers to form exact-match
  // predicates that actually hit).
  uint64_t ItemVersion(uint64_t id) const {
    return versions_[id].load(std::memory_order_relaxed);
  }

 private:
  void WorkerLoop(const RunnerOptions& options, int worker_id,
                  RunnerResult* result, obs::SloTracker* slo,
                  std::chrono::steady_clock::time_point run_start);
  // Executes one operation against the cluster; advances the item-version
  // and recency state for write ops.
  Status ExecuteOneOp(WorkloadOp op, uint64_t id,
                      const RunnerOptions& options, Client* raw_client,
                      DiffIndexClient* client, ReadEngine* engine,
                      Random* rng);

  Cluster* const cluster_;
  const ItemTable* const items_;
  const RunnerOptions options_;

  std::vector<std::atomic<uint64_t>> versions_;
  // Write cursor for the kLatest chooser: advanced once per completed
  // write op; the chooser skews draws toward keys just "behind" it.
  std::atomic<uint64_t> recency_{0};
  std::atomic<uint64_t> issued_{0};
  std::atomic<bool> stop_{false};
};

}  // namespace diffindex

#endif  // DIFFINDEX_WORKLOAD_RUNNER_H_
