#include "core/observers.h"

#include <algorithm>

#include "check/yield.h"
#include "core/index_codec.h"
#include "fault/failpoint.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace diffindex {

namespace {

// Every RB/DI anchor a task carries: its own old_ts plus the old_ts of
// each task coalesced into it, deduped (crash replay can queue duplicate
// puts of the same base edit).
std::vector<Timestamp> RetractionPoints(const IndexTask& task) {
  std::vector<Timestamp> points = task.covered_old_ts;
  points.push_back(task.old_ts != 0 ? task.old_ts : task.ts);
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end()), points.end());
  return points;
}

}  // namespace

IndexManager::IndexManager(RegionServer* server,
                           std::shared_ptr<Client> internal_client,
                           OpStats* stats, const AuqOptions& auq_options)
    : server_(server), internal_client_(std::move(internal_client)),
      stats_(stats) {
  // APS backend (BA2-BA4): one grouped RPC per owning server per drain
  // unit.
  auq_ = std::make_unique<AsyncUpdateQueue>(
      auq_options, [this](const std::vector<IndexTask>& tasks,
                          std::vector<Status>* statuses) {
        ProcessTaskBatch(tasks, statuses);
      });
}

IndexManager::~IndexManager() { Shutdown(); }

void IndexManager::Shutdown() { auq_->Shutdown(); }

void IndexManager::Abandon() { auq_->Abandon(); }

uint64_t IndexManager::QueueDepth() const { return auq_->depth(); }

bool IndexManager::Touches(const IndexDescriptor& index,
                           const std::vector<Cell>& cells) {
  for (const Cell& cell : cells) {
    if (cell.column == index.column) return true;
    for (const auto& extra : index.extra_columns) {
      if (cell.column == extra) return true;
    }
  }
  return false;
}

Status IndexManager::PostApply(const PutRequest& put, Timestamp ts) {
  const std::shared_ptr<const CatalogSnapshot> catalog =
      server_->catalog();
  const TableDescriptor* table = catalog->GetTable(put.table);
  if (table == nullptr || table->indexes.empty()) return Status::OK();

  Status overall = Status::OK();
  for (const IndexDescriptor& index : table->indexes) {
    if (!Touches(index, put.cells)) continue;

    IndexTask task;
    task.base_table = put.table;
    task.row = put.row;
    task.cells = put.cells;
    task.ts = ts;
    task.old_ts = ts;  // oldest covered put == this put, until coalesced
    task.index = index;
    // Hand the put's trace to the task so APS/retry work chains to it.
    const obs::TraceContext& ambient = obs::CurrentTraceContext();
    if (ambient.active()) task.trace = ambient.Child();

    if (index.is_local) {
      // Local index: synchronous, entirely server-local (no remote call
      // to fail, so no AUQ fallback is needed — the put and the index
      // share the region's fate).
      Status s = ProcessLocalTask(task);
      if (!s.ok() && overall.ok()) overall = s;
      continue;
    }

    switch (index.scheme) {
      case IndexScheme::kSyncFull: {
        Status s;
        {
          obs::SpanTimer span(server_->metrics(), server_->traces(),
                              "rs.index_sync");
          s = ProcessTask(task, /*insert_only=*/false);
        }
        if (!s.ok()) {
          // Degrade to eventual: queue for retry, base put still succeeds.
          DIFFINDEX_LOG_WARN << "sync-full index op failed (" << s.ToString()
                             << "); queued for retry";
          auq_->Enqueue(std::move(task));
        }
        break;
      }
      case IndexScheme::kSyncInsert: {
        Status s;
        {
          obs::SpanTimer span(server_->metrics(), server_->traces(),
                              "rs.index_sync");
          s = ProcessTask(task, /*insert_only=*/true);
        }
        if (!s.ok()) {
          DIFFINDEX_LOG_WARN << "sync-insert index op failed ("
                             << s.ToString() << "); queued for retry";
          auq_->Enqueue(std::move(task));
        }
        break;
      }
      case IndexScheme::kAsyncSimple:
      case IndexScheme::kAsyncSession: {
        // AU1: acknowledge once the put is logged and the task enqueued.
        if (!auq_->Enqueue(std::move(task))) {
          overall = Status::Aborted("async update queue shut down");
        }
        break;
      }
    }
  }
  return overall;
}

void IndexManager::PreFlush(const std::string& table) {
  const std::shared_ptr<const CatalogSnapshot> catalog =
      server_->catalog();
  const TableDescriptor* desc = catalog->GetTable(table);
  // Only base tables with indexes can have pending AUQ work derived from
  // their memtables. (Sync schemes also fall back to the AUQ on failure,
  // so any indexed table gets the pause-and-drain treatment.)
  if (desc == nullptr || desc->indexes.empty()) return;
  // Drain barrier about to engage (§5.3): enqueues racing the pause
  // land either before the barrier (drained below) or block until
  // PostFlush resumes intake.
  CHECK_YIELD("auq.pause");
  auq_->Pause();
  // "auq.drain" deliberately breaks the Section 5.3 invariant
  // PR(Flushed) = ∅: the flush proceeds with index work still queued, so a
  // crash after the WAL roll-forward loses it. Exists solely to prove the
  // chaos harness catches the resulting lost entries.
  if (fault::FailpointRegistry::Global()->Fires("auq.drain")) {
    DIFFINDEX_LOG_WARN
        << "failpoint auq.drain: skipping drain-before-flush for " << table;
    return;  // still paused; PostFlush's Resume rebalances
  }
  auq_->WaitDrained();
}

void IndexManager::PostFlush(const std::string& table) {
  const std::shared_ptr<const CatalogSnapshot> catalog =
      server_->catalog();
  const TableDescriptor* desc = catalog->GetTable(table);
  if (desc == nullptr || desc->indexes.empty()) return;
  auq_->Resume();
}

void IndexManager::OnWalReplay(const PutRequest& put, Timestamp ts) {
  const std::shared_ptr<const CatalogSnapshot> catalog =
      server_->catalog();
  const TableDescriptor* table = catalog->GetTable(put.table);
  if (table == nullptr || table->indexes.empty()) return;
  for (const IndexDescriptor& index : table->indexes) {
    if (!Touches(index, put.cells)) continue;
    // Local indexes are wiped and rebuilt wholesale after replay
    // (OnRegionOpened); only global index work re-enters the AUQ.
    if (index.is_local) continue;
    IndexTask task;
    task.base_table = put.table;
    task.row = put.row;
    task.cells = put.cells;
    task.ts = ts;
    task.old_ts = ts;
    task.index = index;
    // "Each base put replayed is also put into AUQ again ... regardless of
    // whether or not it has been delivered before the failure." Duplicate
    // delivery is idempotent because index entries reuse the base ts.
    auq_->Enqueue(std::move(task));
  }
}

Status IndexManager::ProcessLocalTask(const IndexTask& task) {
  // New entry @ ts from the put's own values.
  std::optional<std::string> new_value;
  DIFFINDEX_RETURN_NOT_OK(ResolveIndexValue(
      task, task.ts, /*use_task_cells=*/true, /*foreground=*/true,
      &new_value));
  if (new_value.has_value()) {
    if (stats_ != nullptr) stats_->AddIndexPut();
    DIFFINDEX_RETURN_NOT_OK(server_->ApplyLocalIndex(
        task.base_table, task.row, task.index.name,
        EncodeIndexRow(*new_value, task.row), task.ts,
        /*is_delete=*/false));
  }
  // Old entry @ ts - δ: the base read is local (collocation is the whole
  // advantage of a local index), but it is still a base read.
  std::optional<std::string> old_value;
  DIFFINDEX_RETURN_NOT_OK(ResolveIndexValue(task, task.ts - kDelta,
                                            /*use_task_cells=*/false,
                                            /*foreground=*/true, &old_value));
  if (!old_value.has_value()) return Status::OK();
  if (stats_ != nullptr) stats_->AddIndexPut();
  return server_->ApplyLocalIndex(task.base_table, task.row,
                                  task.index.name,
                                  EncodeIndexRow(*old_value, task.row),
                                  task.ts - kDelta, /*is_delete=*/true);
}

void IndexManager::OnRegionOpened(const std::string& table,
                                  uint64_t region_id) {
  const std::shared_ptr<const CatalogSnapshot> catalog =
      server_->catalog();
  const TableDescriptor* desc = catalog->GetTable(table);
  if (desc == nullptr) return;
  bool has_local = false;
  for (const IndexDescriptor& index : desc->indexes) {
    if (index.is_local) has_local = true;
  }
  if (!has_local) return;

  // Rebuild every local index of this region from its base data (the
  // side tree was wiped at open).
  std::vector<ScannedRow> rows;
  if (!server_->ScanRegionRows(table, region_id, &rows).ok()) return;
  for (const ScannedRow& row : rows) {
    for (const IndexDescriptor& index : desc->indexes) {
      if (!index.is_local) continue;
      IndexTask task;
      task.base_table = table;
      task.row = row.row;
      task.ts = 0;
      task.index = index;
      for (const RowCell& cell : row.cells) {
        task.cells.push_back(Cell{cell.column, cell.value, false});
        task.ts = std::max(task.ts, cell.ts);
      }
      std::optional<std::string> value;
      if (!ResolveIndexValue(task, task.ts, /*use_task_cells=*/true,
                             /*foreground=*/false, &value)
               .ok() ||
          !value.has_value()) {
        continue;
      }
      // Best-effort rebuild: a row that fails to index is simply missing
      // from the local index until the next region (re)open, the same
      // staleness window the wipe-and-rebuild design already accepts.
      server_
          ->ApplyLocalIndex(table, row.row, index.name,
                            EncodeIndexRow(*value, row.row), task.ts,
                            /*is_delete=*/false)
          .IgnoreError();
    }
  }
}

Status IndexManager::ResolveIndexValue(const IndexTask& task,
                                       Timestamp read_ts, bool use_task_cells,
                                       bool foreground,
                                       std::optional<std::string>* out) {
  out->reset();
  std::vector<std::string> columns;
  columns.push_back(task.index.column);
  for (const auto& extra : task.index.extra_columns) {
    columns.push_back(extra);
  }

  std::vector<std::string> components;
  components.reserve(columns.size());
  for (const auto& column : columns) {
    if (use_task_cells) {
      const Cell* from_put = nullptr;
      for (const Cell& cell : task.cells) {
        if (cell.column == column) {
          from_put = &cell;
          break;
        }
      }
      if (from_put != nullptr) {
        if (from_put->is_delete) return Status::OK();  // column removed
        std::string component;
        if (column == task.index.column) {
          if (!IndexComponentFromCell(task.index, from_put->value,
                                      &component)
                   .ok()) {
            return Status::OK();  // dense cell lacks the indexed field
          }
        } else {
          component = from_put->value;
        }
        components.push_back(std::move(component));
        continue;
      }
    }
    // Component not carried by the put (or historical lookup): read the
    // base table — this is the RB of Algorithms 1 and 4.
    DIFFINDEX_FAILPOINT("index.read_base");
    std::string value;
    Status s = server_->LocalGetCell(task.base_table, task.row, column,
                                     read_ts, &value, nullptr);
    if (stats_ != nullptr) {
      if (foreground) {
        stats_->AddBaseRead();
      } else {
        stats_->AddAsyncBaseRead();
      }
    }
    if (s.IsWrongRegion()) {
      // Region moved (mid-failover); fall back to a routed read.
      Timestamp ts_out = 0;
      s = internal_client_->GetCell(task.base_table, task.row, column,
                                    read_ts, &value, &ts_out);
    }
    if (s.IsNotFound()) return Status::OK();  // no value at read_ts => no entry
    // Any other failure (node down, partition, injected I/O error) means
    // the value is UNKNOWN, not absent — propagate so the task retries.
    DIFFINDEX_RETURN_NOT_OK(s);
    std::string component;
    if (column == task.index.column) {
      if (!IndexComponentFromCell(task.index, value, &component).ok()) {
        return Status::OK();
      }
    } else {
      component = std::move(value);
    }
    components.push_back(std::move(component));
  }

  if (components.size() == 1) {
    *out = components[0];
  } else {
    *out = EncodeCompositeIndexValue(components);
  }
  return Status::OK();
}

Status IndexManager::PutIndexEntry(const std::string& index_table,
                                   const std::string& index_row,
                                   Timestamp ts) {
  if (stats_ != nullptr) stats_->AddIndexPut();
  // PI step (SU2).
  DIFFINDEX_FAILPOINT("index.put");
  // Key-only entry: concatenated rowkey, null value (Section 4).
  return internal_client_->Put(index_table, index_row,
                               {Cell{"", "", /*is_delete=*/false}}, ts);
}

Status IndexManager::DeleteIndexEntry(const std::string& index_table,
                                      const std::string& index_row,
                                      Timestamp ts) {
  // Deletes cost the same as puts in LSM.
  if (stats_ != nullptr) stats_->AddIndexPut();
  // DI step (SU4).
  DIFFINDEX_FAILPOINT("index.delete");
  return internal_client_->Put(index_table, index_row,
                               {Cell{"", "", /*is_delete=*/true}}, ts);
}

Status IndexManager::ProcessTask(const IndexTask& task, bool insert_only) {
  // New index entry @ ts: value from the put itself (SU2). A put of a
  // delete-cell produces no new entry ("deletion can be treated as a put
  // with a null value").
  std::optional<std::string> new_value;
  DIFFINDEX_RETURN_NOT_OK(ResolveIndexValue(
      task, task.ts, /*use_task_cells=*/true, /*foreground=*/true,
      &new_value));

  if (new_value.has_value()) {
    const std::string new_row =
        EncodeIndexRow(*new_value, task.row);
    // PI about to land: index readers racing the entry's visibility
    // interleave here (SU2).
    CHECK_YIELD("index.stage.put");
    DIFFINDEX_RETURN_NOT_OK(
        PutIndexEntry(task.index.index_table, new_row, task.ts));
  }

  if (insert_only) return Status::OK();  // sync-insert stops at SU2

  // SU3 + SU4: read the value current just before the put — RB(k, ts -
  // δ); the δ matters, reading at ts would return the value just written
  // — and delete its entry at ts - δ. With vold == vnew the rows
  // coincide, but a tombstone at ts - δ cannot mask the new entry at ts
  // (Section 4.3). A sync task is never coalesced, so ts is its only
  // retraction point.
  //
  // Window between PI and DI: a reader here sees both the new and the
  // not-yet-retracted old entry (Section 4.3 tolerates it; the terminal
  // oracle must not).
  CHECK_YIELD("index.retract");
  std::optional<std::string> old_value;
  DIFFINDEX_RETURN_NOT_OK(ResolveIndexValue(task, task.ts - kDelta,
                                            /*use_task_cells=*/false,
                                            /*foreground=*/true, &old_value));
  if (!old_value.has_value()) return Status::OK();  // fresh insert
  return DeleteIndexEntry(task.index.index_table,
                          EncodeIndexRow(*old_value, task.row),
                          task.ts - kDelta);
}

Status IndexManager::StagePutIndexEntry(const std::string& index_table,
                                        const std::string& index_row,
                                        Timestamp ts,
                                        std::vector<PutRequest>* ops) {
  if (stats_ != nullptr) stats_->AddAsyncIndexPut();
  DIFFINDEX_FAILPOINT("index.put");
  PutRequest req;
  req.table = index_table;
  req.row = index_row;
  req.cells = {Cell{"", "", /*is_delete=*/false}};
  req.ts = ts;
  ops->push_back(std::move(req));
  return Status::OK();
}

Status IndexManager::StageDeleteIndexEntry(const std::string& index_table,
                                           const std::string& index_row,
                                           Timestamp ts,
                                           std::vector<PutRequest>* ops) {
  if (stats_ != nullptr) stats_->AddAsyncIndexPut();
  DIFFINDEX_FAILPOINT("index.delete");
  PutRequest req;
  req.table = index_table;
  req.row = index_row;
  req.cells = {Cell{"", "", /*is_delete=*/true}};
  req.ts = ts;
  ops->push_back(std::move(req));
  return Status::OK();
}

void IndexManager::ProcessTaskBatch(const std::vector<IndexTask>& tasks,
                                    std::vector<Status>* statuses) {
  statuses->assign(tasks.size(), Status::OK());
  std::vector<PutRequest> staged;
  std::vector<bool> shipped(tasks.size(), false);
  for (size_t i = 0; i < tasks.size(); i++) {
    const IndexTask& task = tasks[i];
    // Base reads for this task's PI/DI values are about to happen; base
    // writes racing the batched resolve interleave here (BA2).
    CHECK_YIELD("index.batch.resolve");
    // Resolve BOTH values before staging anything for this task: a
    // resolution error must stage nothing, or a half-staged task would
    // ship its PI now and retry its DI later against a changed base.
    std::optional<std::string> new_value;
    Status s = ResolveIndexValue(task, task.ts, /*use_task_cells=*/true,
                                 /*foreground=*/false, &new_value);
    // (retraction point, old value there) for every covered put.
    std::vector<std::pair<Timestamp, std::string>> old_entries;
    if (s.ok()) {
      for (const Timestamp old_ts : RetractionPoints(task)) {
        std::optional<std::string> old_value;
        s = ResolveIndexValue(task, old_ts - kDelta,
                              /*use_task_cells=*/false,
                              /*foreground=*/false, &old_value);
        if (!s.ok()) break;
        if (old_value.has_value()) {
          old_entries.emplace_back(old_ts, std::move(*old_value));
        }
      }
    }
    if (!s.ok()) {
      (*statuses)[i] = s;
      continue;
    }
    const size_t before = staged.size();
    if (new_value.has_value()) {
      s = StagePutIndexEntry(task.index.index_table,
                             EncodeIndexRow(*new_value, task.row), task.ts,
                             &staged);
    }
    for (const auto& [old_ts, old_value] : old_entries) {
      if (!s.ok()) break;
      s = StageDeleteIndexEntry(task.index.index_table,
                                EncodeIndexRow(old_value, task.row),
                                old_ts - kDelta, &staged);
    }
    if (!s.ok()) {
      // Injected PI/DI failure: retract the task's half-staged ops so the
      // shipped batch carries only whole tasks.
      staged.resize(before);
      (*statuses)[i] = s;
      continue;
    }
    shipped[i] = staged.size() > before;
  }
  if (staged.empty()) return;

  // The whole drain unit ships as one RPC: readers here still see the
  // pre-batch index state.
  CHECK_YIELD("index.batch.ship");
  Status ship = internal_client_->MultiPutBatch(std::move(staged));
  if (!ship.ok()) {
    // All-or-error: a transport failure fails every task that staged work;
    // the whole batch retries and re-delivery is idempotent because index
    // entries reuse the base timestamps.
    for (size_t i = 0; i < tasks.size(); i++) {
      if (shipped[i] && (*statuses)[i].ok()) (*statuses)[i] = ship;
    }
  }
}

}  // namespace diffindex
