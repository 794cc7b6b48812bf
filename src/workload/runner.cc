#include "workload/runner.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "core/diff_index_client.h"
#include "core/index_codec.h"
#include "query/engine.h"

namespace diffindex {

namespace {
using Clock = std::chrono::steady_clock;

uint64_t MicrosSince(Clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            start)
          .count());
}

const char* WorkloadOpName(WorkloadOp op) {
  switch (op) {
    case WorkloadOp::kUpdateTitle:
      return "update_title";
    case WorkloadOp::kUpdateFullRow:
      return "update_full_row";
    case WorkloadOp::kReadIndexExact:
      return "read_index_exact";
    case WorkloadOp::kRangeIndexPrice:
      return "range_index_price";
    case WorkloadOp::kBasePutNoIndex:
      return "base_put_no_index";
    case WorkloadOp::kScanIndexRange:
      return "scan_index_range";
    case WorkloadOp::kScanTableRange:
      return "scan_table_range";
  }
  return "unknown";
}

// One entry per operation a worker may issue: the op plus its cached
// registry instruments and its cumulative weight in per-million units
// (mix selection is one Uniform(1e6) draw against this table).
struct MixSlot {
  WorkloadOp op;
  uint64_t cumulative_per_million;
  Histogram* hist;
  obs::Counter* errors;
};

std::vector<MixSlot> BuildMixSlots(const RunnerOptions& options,
                                   obs::MetricsRegistry* metrics) {
  std::vector<RunnerOptions::MixEntry> entries = options.mix;
  if (entries.empty()) {
    entries.push_back(RunnerOptions::MixEntry{options.op, 1.0});
  }
  double total = 0;
  for (const auto& entry : entries) {
    if (entry.weight > 0) total += entry.weight;
  }
  std::vector<MixSlot> slots;
  slots.reserve(entries.size());
  double running = 0;
  for (const auto& entry : entries) {
    if (entry.weight <= 0 && entries.size() > 1) continue;
    running += entry.weight > 0 ? entry.weight : 1.0;
    MixSlot slot;
    slot.op = entry.op;
    slot.cumulative_per_million = total > 0
        ? static_cast<uint64_t>(running / total * 1000000.0)
        : 1000000;
    slot.hist = metrics->GetHistogram(
        std::string("workload.") + WorkloadOpName(entry.op) + "_micros");
    slot.errors = metrics->GetCounter(
        std::string("workload.") + WorkloadOpName(entry.op) + ".errors");
    slots.push_back(slot);
  }
  slots.back().cumulative_per_million = 1000000;  // absorb rounding
  return slots;
}

}  // namespace

Status WorkloadRunner::LoadItems(int load_threads) {
  const uint64_t n = items_->options().num_items;
  versions_ = std::vector<std::atomic<uint64_t>>(n);
  for (auto& v : versions_) v.store(0, std::memory_order_relaxed);

  std::atomic<uint64_t> next{0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  threads.reserve(load_threads);
  for (int t = 0; t < load_threads; t++) {
    threads.emplace_back([this, t, n, &next, &failed] {
      auto client = cluster_->NewClient();
      Random rng(options_.seed * 1000 + t);
      for (;;) {
        const uint64_t id = next.fetch_add(1, std::memory_order_relaxed);
        if (id >= n || failed.load(std::memory_order_relaxed)) return;
        Status s = client->Put(items_->options().table, items_->RowKey(id),
                               items_->MakeRow(id, 0, &rng));
        if (!s.ok()) failed.store(true, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : threads) t.join();
  if (failed.load()) return Status::Aborted("load failed");
  return Status::OK();
}

Status WorkloadRunner::RunWith(const RunnerOptions& options,
                               RunnerResult* result) {
  if (versions_.empty()) {
    versions_ = std::vector<std::atomic<uint64_t>>(
        items_->options().num_items);
    for (auto& v : versions_) v.store(0, std::memory_order_relaxed);
  }
  issued_.store(0);
  stop_.store(false);

  std::unique_ptr<obs::SloTracker> slo;
  if (options.slo_window_micros > 0) {
    obs::SloOptions slo_options;
    slo_options.window_micros = options.slo_window_micros;
    slo_options.p99_target_micros = options.slo_p99_target_micros;
    slo_options.metrics = cluster_->metrics();
    slo = std::make_unique<obs::SloTracker>(slo_options);
  }

  const auto start = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(options.threads);
  std::vector<RunnerResult> partials(options.threads);
  for (int t = 0; t < options.threads; t++) {
    threads.emplace_back([this, &options, t, &partials, &slo, start] {
      WorkerLoop(options, t, &partials[t], slo.get(), start);
    });
  }
  if (options.max_duration_ms > 0) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options.max_duration_ms));
    stop_.store(true);
  }
  for (auto& t : threads) t.join();

  result->operations = 0;
  result->errors = 0;
  for (auto& partial : partials) {
    result->operations += partial.operations;
    result->errors += partial.errors;
    result->latency->Merge(*partial.latency);
  }
  result->elapsed_seconds =
      static_cast<double>(MicrosSince(start)) / 1e6;
  result->tps = result->elapsed_seconds > 0
                    ? static_cast<double>(result->operations) /
                          result->elapsed_seconds
                    : 0;
  if (slo != nullptr) {
    result->windows = slo->Finish(MicrosSince(start));
  } else {
    result->windows.clear();
  }
  return Status::OK();
}

Status WorkloadRunner::ExecuteOneOp(WorkloadOp op, uint64_t id,
                                    const RunnerOptions& options,
                                    Client* raw_client,
                                    DiffIndexClient* client,
                                    ReadEngine* engine, Random* rng) {
  switch (op) {
    case WorkloadOp::kUpdateTitle: {
      const uint64_t version =
          versions_[id].fetch_add(1, std::memory_order_relaxed) + 1;
      recency_.fetch_add(1, std::memory_order_relaxed);
      return client->Put(items_->options().table, items_->RowKey(id),
                         {Cell{ItemTable::kTitleColumn,
                               items_->TitleValue(id, version), false}});
    }
    case WorkloadOp::kUpdateFullRow: {
      const uint64_t version =
          versions_[id].fetch_add(1, std::memory_order_relaxed) + 1;
      recency_.fetch_add(1, std::memory_order_relaxed);
      return client->Put(items_->options().table, items_->RowKey(id),
                         items_->MakeRow(id, version, rng));
    }
    case WorkloadOp::kBasePutNoIndex: {
      const uint64_t version =
          versions_[id].fetch_add(1, std::memory_order_relaxed) + 1;
      recency_.fetch_add(1, std::memory_order_relaxed);
      return client->Put(items_->options().table, items_->RowKey(id),
                         {Cell{ItemTable::kTitleColumn,
                               items_->TitleValue(id, version), false}});
    }
    case WorkloadOp::kReadIndexExact: {
      const uint64_t version =
          versions_[id].load(std::memory_order_relaxed);
      std::vector<IndexHit> hits;
      return client->GetByIndex(items_->options().table,
                                ItemTable::kTitleIndex,
                                items_->TitleValue(id, version), &hits);
    }
    case WorkloadOp::kRangeIndexPrice: {
      const uint64_t domain = items_->options().price_domain;
      const uint64_t width = std::min(options.price_range_width, domain);
      const uint64_t lo = rng->Uniform(domain - width + 1);
      std::vector<IndexHit> hits;
      return client->RangeByIndex(items_->options().table,
                                  ItemTable::kPriceIndex,
                                  EncodeUint64IndexValue(lo),
                                  EncodeUint64IndexValue(lo + width), 0,
                                  &hits);
    }
    case WorkloadOp::kScanIndexRange: {
      const uint64_t domain = items_->options().price_domain;
      const uint64_t width = std::min(options.price_range_width, domain);
      const uint64_t lo = rng->Uniform(domain - width + 1);
      ScanSpec spec;
      spec.table = items_->options().table;
      spec.index_name = ItemTable::kPriceIndex;
      spec.value_lo_encoded = EncodeUint64IndexValue(lo);
      spec.value_hi_encoded = EncodeUint64IndexValue(lo + width);
      if (options.scan_covered) {
        spec.projection = {ItemTable::kPriceColumn};
      }
      ScanOptions scan;
      scan.page_entries = options.scan_page_entries;
      scan.max_parallel = options.scan_parallel;
      scan.allow_covered = options.scan_covered;
      std::vector<ScannedRow> rows;
      return engine->ScanByIndex(spec, scan, &rows);
    }
    case WorkloadOp::kScanTableRange: {
      std::vector<ScannedRow> rows;
      return raw_client->ScanRows(items_->options().table,
                                  items_->RowKey(id), "", kMaxTimestamp,
                                  options.scan_rows, &rows);
    }
  }
  return Status::InvalidArgument("unknown workload op");
}

void WorkloadRunner::WorkerLoop(const RunnerOptions& options,
                                int worker_id, RunnerResult* result,
                                obs::SloTracker* slo,
                                Clock::time_point run_start) {
  auto raw_client = cluster_->NewClient();
  DiffIndexClient client(raw_client, cluster_->stats());
  // Cheap when unused: the engine only spawns its leg pool on the first
  // parallel scan.
  ReadEngine engine(&client);
  // Per-op latencies also land in the cluster registry; instruments are
  // resolved once per worker (the loop body stays lock-free).
  const std::vector<MixSlot> slots =
      BuildMixSlots(options, cluster_->metrics());
  KeyChooserParams chooser_params;
  chooser_params.hotspot_set_fraction = options.hotspot_set_fraction;
  chooser_params.hotspot_op_fraction = options.hotspot_op_fraction;
  chooser_params.recency = &recency_;
  auto chooser =
      KeyChooser::Create(options.distribution,
                         items_->options().num_items,
                         options.seed * 7919 + worker_id, chooser_params);
  Random rng(options.seed * 104729 + worker_id);

  // Pacing: each worker owns an equal slice of the target rate.
  const double per_thread_tps =
      options.target_tps > 0
          ? options.target_tps / options.threads
          : 0;
  const uint64_t pace_interval_micros =
      per_thread_tps > 0 ? static_cast<uint64_t>(1e6 / per_thread_tps) : 0;
  const auto start = Clock::now();
  uint64_t local_ops = 0;

  for (;;) {
    if (stop_.load(std::memory_order_relaxed)) break;
    if (options.total_operations > 0 &&
        issued_.fetch_add(1, std::memory_order_relaxed) >=
            options.total_operations) {
      break;
    }
    if (pace_interval_micros > 0) {
      const uint64_t due = local_ops * pace_interval_micros;
      uint64_t now = MicrosSince(start);
      while (now < due && !stop_.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(std::min<uint64_t>(due - now, 1000)));
        now = MicrosSince(start);
      }
    }

    const MixSlot* slot = &slots.front();
    if (slots.size() > 1) {
      const uint64_t draw = rng.Uniform(1000000);
      for (const MixSlot& candidate : slots) {
        if (draw < candidate.cumulative_per_million) {
          slot = &candidate;
          break;
        }
      }
    }
    const uint64_t id = chooser->Next();
    const auto op_start = Clock::now();
    Status s = ExecuteOneOp(slot->op, id, options, raw_client.get(),
                            &client, &engine, &rng);
    const uint64_t latency_micros =
        static_cast<uint64_t>(std::chrono::duration_cast<
                                  std::chrono::microseconds>(Clock::now() -
                                                             op_start)
                                  .count());
    result->latency->Add(latency_micros);
    slot->hist->Add(latency_micros);
    if (slo != nullptr) {
      slo->RecordAt(MicrosSince(run_start), latency_micros, s.ok());
    }
    result->operations++;
    local_ops++;
    if (!s.ok()) {
      result->errors++;
      slot->errors->Add();
    }
  }
}

}  // namespace diffindex
