#include "cluster/region_server.h"

#include <algorithm>
#include <chrono>
#include <tuple>

#include "check/yield.h"
#ifdef DIFFINDEX_CHECK
#include "check/test_hooks.h"
#endif
#include "cluster/checkpoint.h"
#include "fault/failpoint.h"
#include "obs/trace.h"
#include "util/coding.h"
#include "util/logging.h"

namespace diffindex {

namespace {

static_assert(kCellSeparator == kRowSeparator,
              "the SST row filter keys cells by the cluster's row");

// Start bound of a row's cells: cell keys are row '\0' column, and rows
// never contain '\0'.
std::string RowScanStart(const Slice& row) {
  std::string s(row.data(), row.size());
  s.push_back('\0');
  return s;
}

bool ValidName(const Slice& s) {
  for (size_t i = 0; i < s.size(); i++) {
    if (s[i] == kCellSeparator) return false;
  }
  return true;
}

// The positions of a batched request that one region holds; the region
// reads them as one sorted batch.
struct RegionBatch {
  std::shared_ptr<Region> region;
  std::vector<size_t> members;
};

std::vector<size_t>* BatchFor(const std::shared_ptr<Region>& region,
                              std::vector<RegionBatch>* batches) {
  for (RegionBatch& batch : *batches) {
    if (batch.region == region) return &batch.members;
  }
  batches->push_back(RegionBatch{region, {}});
  return &batches->back().members;
}

// Groups a flat cell-key scan into rows.
void GroupIntoRows(const std::vector<LsmTree::ScanEntry>& entries,
                   std::vector<ScannedRow>* rows) {
  for (const auto& entry : entries) {
    std::string row, column;
    if (!DecodeCellKey(entry.key, &row, &column)) continue;
    if (rows->empty() || rows->back().row != row) {
      rows->push_back(ScannedRow{row, {}});
    }
    rows->back().cells.push_back(RowCell{column, entry.value, entry.ts});
  }
}

}  // namespace

// ---- WalEdit ----

void WalEdit::EncodeTo(std::string* out) const {
  PutLengthPrefixedSlice(out, table);
  PutVarint64(out, region_id);
  PutVarint64(out, seq);
  PutLengthPrefixedSlice(out, row);
  PutVarint32(out, static_cast<uint32_t>(cells.size()));
  for (const Cell& cell : cells) {
    PutLengthPrefixedSlice(out, cell.column);
    PutLengthPrefixedSlice(out, cell.value);
    out->push_back(cell.is_delete ? 1 : 0);
  }
  PutFixed64(out, ts);
}

bool WalEdit::DecodeFrom(Slice* in, WalEdit* edit) {
  uint32_t n;
  if (!GetLengthPrefixedString(in, &edit->table) ||
      !GetVarint64(in, &edit->region_id) || !GetVarint64(in, &edit->seq) ||
      !GetLengthPrefixedString(in, &edit->row) || !GetVarint32(in, &n)) {
    return false;
  }
  edit->cells.resize(n);
  for (uint32_t i = 0; i < n; i++) {
    if (!GetLengthPrefixedString(in, &edit->cells[i].column) ||
        !GetLengthPrefixedString(in, &edit->cells[i].value) || in->empty()) {
      return false;
    }
    edit->cells[i].is_delete = (*in)[0] != 0;
    in->remove_prefix(1);
  }
  return GetFixed64(in, &edit->ts);
}

// ---- RegionServer ----

RegionServer::RegionServer(NodeId id, std::string data_root, Fabric* fabric,
                           const RegionServerOptions& options)
    : id_(id),
      data_root_(std::move(data_root)),
      wal_dir_(data_root_ + "/wal/s" + std::to_string(id)),
      fabric_(fabric),
      options_(options),
      lsm_options_(options.lsm),
      compactor_(std::make_unique<Compactor>(options.metrics)) {
  if (lsm_options_.block_cache == nullptr && options_.block_cache_bytes > 0) {
    lsm_options_.block_cache =
        std::make_shared<BlockCache>(options_.block_cache_bytes);
  }
  lsm_options_.compactor = compactor_.get();
  if (options_.metrics != nullptr) {
    rs_put_counter_ = options_.metrics->GetCounter("rs.put");
    admission_delayed_counter_ =
        options_.metrics->GetCounter("admission.delayed");
    admission_delayed_micros_counter_ =
        options_.metrics->GetCounter("admission.delayed_micros");
    admission_rejected_counter_ =
        options_.metrics->GetCounter("admission.rejected");
    rs_flush_counter_ = options_.metrics->GetCounter("rs.flush");
    flush_stall_hist_ =
        options_.metrics->GetHistogram("rs.flush_stall_micros");
    wal_group_size_hist_ = options_.metrics->GetHistogram("wal.group_size");
    wal_segments_gauge_ = options_.metrics->GetGauge("wal.segments");
    wal_gc_deleted_counter_ = options_.metrics->GetCounter("wal.gc_deleted");
    wal_replay_skipped_counter_ =
        options_.metrics->GetCounter("wal.replay_skipped");
    wal_replayed_counter_ = options_.metrics->GetCounter("wal.replayed");
    checkpoint_writes_counter_ =
        options_.metrics->GetCounter("checkpoint.writes");
    checkpoint_write_failed_counter_ =
        options_.metrics->GetCounter("checkpoint.write_failed");
    checkpoint_corrupt_counter_ =
        options_.metrics->GetCounter("checkpoint.corrupt");
  }
  if (options_.base_row_cache_bytes > 0) {
    base_row_cache_ = std::make_unique<BaseRowCache>(
        options_.base_row_cache_bytes, options_.metrics);
  }
}

RegionServer::~RegionServer() {
  stopped_.store(true);
  if (heartbeat_thread_.joinable()) heartbeat_thread_.join();
  if (wal_gc_thread_.joinable()) wal_gc_thread_.join();
  StopCompactor();
}

Status RegionServer::Start() {
  // Edit sequences are compared against values persisted by a region's
  // previous owner after a failover, so they must grow across owner
  // generations: seed from the wall clock (a new owner always starts
  // after the old owner's last edit).
  next_edit_seq_.store(TimestampOracle::NowMicros());
  DIFFINDEX_RETURN_NOT_OK(lsm_options_.env->CreateDirIfMissing(wal_dir_));
  {
    MutexLock lock(wal_mu_);
    DIFFINDEX_RETURN_NOT_OK(RollWalLocked());
  }
  fabric_->RegisterNode(
      id_, [this](MsgType type, Slice body, std::string* response) {
        return Handle(type, body, response);
      });
  if (options_.heartbeat_interval_ms > 0) {
    heartbeat_thread_ = std::thread([this] { HeartbeatLoop(); });
  }
  if (options_.wal_gc_interval_ms > 0) {
    wal_gc_thread_ = std::thread([this] { WalGcLoop(); });
  }
  return Status::OK();
}

Status RegionServer::Stop() {
  DIFFINDEX_RETURN_NOT_OK(FlushAll());
  stopped_.store(true);
  if (heartbeat_thread_.joinable()) heartbeat_thread_.join();
  if (wal_gc_thread_.joinable()) wal_gc_thread_.join();
  StopCompactor();
  fabric_->UnregisterNode(id_);
  MutexLock lock(wal_mu_);
  if (!wal_files_.empty() && wal_files_.back().writer != nullptr) {
    // Graceful stop already flushed every region, so the WAL's contents
    // are all covered by disk stores; a close error cannot lose edits.
    wal_files_.back().writer->Close().IgnoreError();
    wal_files_.back().writer.reset();
  }
  return Status::OK();
}

void RegionServer::Crash() {
  stopped_.store(true);
  if (heartbeat_thread_.joinable()) heartbeat_thread_.join();
  if (wal_gc_thread_.joinable()) wal_gc_thread_.join();
  StopCompactor();
}

void RegionServer::StopCompactor() {
  std::vector<std::shared_ptr<Region>> regions;
  {
    ReaderMutexLock lock(regions_mu_);
    for (const auto& [key, region] : regions_) regions.push_back(region);
  }
  // The region directories are shared: a survivor may open them next.
  for (const auto& region : regions) region->StopCompactions();
  compactor_->Shutdown();
}

void RegionServer::WalGcLoop() {
  while (!stopped_.load()) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options_.wal_gc_interval_ms));
    if (stopped_.load()) break;
    MutexLock lock(wal_mu_);
    MaybeGcWalFilesLocked();
  }
}

void RegionServer::UpdateCatalog(CatalogSnapshot snapshot) {
  CHECK_YIELD("rs.catalog.update");
  auto next = std::make_shared<const CatalogSnapshot>(std::move(snapshot));
  MutexLock lock(catalog_mu_);
  catalog_ = std::move(next);
}

std::shared_ptr<const CatalogSnapshot> RegionServer::catalog() const {
  MutexLock lock(catalog_mu_);
  return catalog_;
}

void RegionServer::HeartbeatLoop() {
  while (!stopped_.load()) {
    HeartbeatRequest hb;
    hb.server_id = id_;
    hb.auq_depth = hooks_ != nullptr ? hooks_->QueueDepth() : 0;
    std::string body, response;
    hb.EncodeTo(&body);
    // A failed heartbeat is not an error to handle: missed beats are
    // exactly the signal the master's failure detector consumes.
    fabric_->Call(id_, kMasterNode, MsgType::kHeartbeat, body, &response)
        .IgnoreError();
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options_.heartbeat_interval_ms));
  }
}

void RegionServer::AdoptAppliedSeq(uint64_t adopted) {
  // The adopted region's persisted applied_seq comes from its previous
  // owner's sequence space. Future edits here must sort after it, or a
  // crash of THIS server would make replay skip them; fast-forward the
  // edit sequence past the checkpoint.
  uint64_t current = next_edit_seq_.load(std::memory_order_relaxed);
  while (current <= adopted &&
         !next_edit_seq_.compare_exchange_weak(current, adopted + 1,
                                               std::memory_order_relaxed)) {
  }
}

Status RegionServer::OpenRegionInternal(const RegionInfoWire& info) {
  DIFFINDEX_FAILPOINT("region.open");
  // Adopted region data (and any WAL replay that follows) did not pass
  // through NoteWrite; drop every cached claim about what is "latest".
  if (base_row_cache_ != nullptr) base_row_cache_->Clear();
  std::unique_ptr<Region> region;
  DIFFINDEX_RETURN_NOT_OK(
      Region::Open(lsm_options_, data_root_, info, &region));
  AdoptAppliedSeq(region->tree()->applied_seq());

  WriterMutexLock lock(regions_mu_);
  const auto key = std::make_pair(info.table, info.region_id);
  regions_[key] = std::shared_ptr<Region>(region.release());
  flushed_seq_[key] = regions_[key]->tree()->applied_seq();
  return Status::OK();
}

Status RegionServer::OpenRegion(const RegionInfoWire& info) {
  if (stopped_.load()) return Status::Unavailable("region server stopped");
  DIFFINDEX_RETURN_NOT_OK(OpenRegionInternal(info));
  // Rebuild region-co-located local indexes from the base data.
  if (hooks_ != nullptr) hooks_->OnRegionOpened(info.table, info.region_id);
  return Status::OK();
}

Status RegionServer::ReplayWalForRegion(
    Region* region, const RegionInfoWire& info,
    const std::vector<std::string>& wal_paths, uint64_t recovered_through,
    std::vector<std::pair<PutRequest, Timestamp>>* replayed) {
  // "Split the log": scan the dead owners' WAL files, pick out this
  // region's edits, replay those past the roll-forward point.
  uint64_t skipped = 0;
  for (const auto& path : wal_paths) {
    DIFFINDEX_FAILPOINT("wal.replay");
    std::unique_ptr<wal::Reader> reader;
    Status s = wal::Reader::Open(lsm_options_.env, path, &reader);
    if (!s.ok()) continue;  // file may be gone (GC'd); fine
    std::string payload;
    while (reader->ReadRecord(&payload)) {
      Slice in(payload);
      WalEdit edit;
      if (!WalEdit::DecodeFrom(&in, &edit)) break;  // corrupt tail
      if (edit.table != info.table || edit.region_id != info.region_id) {
        continue;
      }
      if (edit.seq <= recovered_through) {  // already flushed
        skipped++;
        continue;
      }

      PutRequest put;
      put.table = edit.table;
      put.row = edit.row;
      put.cells = edit.cells;
      put.ts = edit.ts;
      {
        MutexLock wlock(region->write_mu());
        for (const Cell& cell : put.cells) {
          const std::string cell_key = EncodeCellKey(put.row, cell.column);
          if (cell.is_delete) {
            // ANALYZER_WAIVE(log-before-apply): WAL replay — this edit
            // was decoded from the log being replayed, so its covering
            // append happened before the crash; re-appending would
            // duplicate it.
            DIFFINDEX_RETURN_NOT_OK(region->tree()->Delete(cell_key, edit.ts));
          } else {
            // ANALYZER_WAIVE(log-before-apply): WAL replay — same
            // already-durable argument as the delete arm above.
            DIFFINDEX_RETURN_NOT_OK(
                region->tree()->Put(cell_key, cell.value, edit.ts));
          }
        }
      }
      replayed->emplace_back(std::move(put), edit.ts);
    }
  }
  if (wal_replay_skipped_counter_ != nullptr) {
    wal_replay_skipped_counter_->Add(skipped);
  }
  if (wal_replayed_counter_ != nullptr) {
    wal_replayed_counter_->Add(replayed->size());
  }
  DIFFINDEX_LOG_INFO << "server " << id_ << ": recovered region "
                     << info.table << "/r" << info.region_id << ", "
                     << replayed->size() << " edits replayed, " << skipped
                     << " skipped (checkpointed)";
  return Status::OK();
}

Status RegionServer::OpenRegionWithRecovery(
    const RegionInfoWire& info, const std::vector<std::string>& wal_paths) {
  if (stopped_.load()) return Status::Unavailable("region server stopped");
  {
    // Already hosting: a chained-failure recovery can route the same
    // region back to a server that recovered it moments ago. The served
    // state supersedes any replay; opening the LSM dir a second time
    // would race the live tree.
    ReaderMutexLock lock(regions_mu_);
    if (regions_.count({info.table, info.region_id}) > 0) {
      return Status::OK();
    }
  }
  DIFFINDEX_FAILPOINT("region.open");
  if (base_row_cache_ != nullptr) base_row_cache_->Clear();

  // Open, replay, and only then publish: a failure anywhere below leaves
  // this server exactly as it was (the region never served, so there is
  // nothing to un-publish and no acked edit to lose), which is what lets
  // the master retry here or reassign to another survivor.
  std::unique_ptr<Region> region;
  DIFFINDEX_RETURN_NOT_OK(
      Region::Open(lsm_options_, data_root_, info, &region));
  AdoptAppliedSeq(region->tree()->applied_seq());

  // Roll-forward point: the flush checkpoint when one is readable, the
  // LSM manifest's applied_seq otherwise (pre-checkpoint regions). A
  // corrupt checkpoint widens replay to the full log — replay is
  // idempotent under the explicit-timestamp rule, so over-replay costs
  // time, never correctness — and is never trusted to narrow it.
  uint64_t recovered_through = 0;
  if (options_.recovery_use_checkpoints) {
    recovered_through = region->tree()->applied_seq();
    RegionCheckpoint ckpt;
    Status ckpt_status = ReadRegionCheckpoint(
        lsm_options_.env, data_root_, info.table, info.region_id, &ckpt);
    if (ckpt_status.ok()) {
      recovered_through = std::max(recovered_through, ckpt.wal_seq);
    } else if (ckpt_status.IsCorruption()) {
      DIFFINDEX_LOG_WARN << "server " << id_ << ": checkpoint for "
                         << info.table << "/r" << info.region_id
                         << " unreadable (" << ckpt_status.ToString()
                         << "); falling back to full replay";
      if (checkpoint_corrupt_counter_ != nullptr) {
        checkpoint_corrupt_counter_->Add();
      }
      recovered_through = 0;
    }
  }

  std::vector<std::pair<PutRequest, Timestamp>> replayed;
  DIFFINDEX_RETURN_NOT_OK(ReplayWalForRegion(
      region.get(), info, wal_paths, recovered_through, &replayed));

  // Publish: the region starts serving its recovered state.
  {
    WriterMutexLock lock(regions_mu_);
    const auto key = std::make_pair(info.table, info.region_id);
    regions_[key] = std::shared_ptr<Region>(region.release());
    flushed_seq_[key] = regions_[key]->tree()->applied_seq();
  }

  // Requirement (2) of the AUQ recovery protocol: every replayed base
  // put re-enters the AUQ, "regardless of whether or not it has been
  // delivered to index tables before the failure". Idempotent by the
  // same-timestamp rule. After publish, so the tasks' base read-backs
  // can route to this region.
  if (hooks_ != nullptr) {
    for (auto& [put, ts] : replayed) {
      hooks_->OnWalReplay(put, ts);
    }
    // Replay done: local indexes can now be rebuilt over the full state.
    hooks_->OnRegionOpened(info.table, info.region_id);
  }
  // The master flushes the region (phase 2 of recovery) once every region
  // of the dead server has a reachable new owner — the flush drains the
  // re-enqueued AUQ entries first and those need the other regions up.
  return Status::OK();
}

Status RegionServer::SplitRegion(const std::string& table,
                                 uint64_t region_id,
                                 const std::string& split_key,
                                 const RegionInfoWire& left,
                                 const RegionInfoWire& right) {
  auto parent = FindRegionById(table, region_id);
  if (parent == nullptr) return Status::WrongRegion(table);
  if (!parent->ContainsRow(split_key)) {
    return Status::InvalidArgument("split key outside the region range");
  }
  if (split_key == parent->info().start_row) {
    return Status::InvalidArgument("split key equals the region start");
  }

  // Make the parent's state durable first (drains the AUQ so no pending
  // index work references the parent's memtable).
  DIFFINDEX_RETURN_NOT_OK(FlushRegionInternal(parent));

  {
    // Block writes to the parent for the copy + swap.
    WriterMutexLock gate(parent->flush_gate());

    std::unique_ptr<Region> left_region, right_region;
    DIFFINDEX_RETURN_NOT_OK(
        Region::Open(lsm_options_, data_root_, left, &left_region));
    DIFFINDEX_RETURN_NOT_OK(
        Region::Open(lsm_options_, data_root_, right, &right_region));

    // Copy all versions into the daughters. Cell keys order by row first,
    // so [.., split'\0') and [split'\0', ..) partition the cell keyspace
    // exactly at the row boundary.
    const std::string split_cell = RowScanStart(split_key);
    DIFFINDEX_RETURN_NOT_OK(
        parent->tree()->ExportRecords("", split_cell, left_region->tree()));
    DIFFINDEX_RETURN_NOT_OK(
        parent->tree()->ExportRecords(split_cell, "", right_region->tree()));
    DIFFINDEX_RETURN_NOT_OK(left_region->tree()->Flush());
    DIFFINDEX_RETURN_NOT_OK(right_region->tree()->Flush());

    // Atomic metadata swap: the parent disappears, the daughters take over.
    {
      WriterMutexLock lock(regions_mu_);
      regions_.erase({table, region_id});
      flushed_seq_.erase({table, region_id});
      regions_[{table, left.region_id}] =
          std::shared_ptr<Region>(left_region.release());
      regions_[{table, right.region_id}] =
          std::shared_ptr<Region>(right_region.release());
      flushed_seq_[{table, left.region_id}] = 0;
      flushed_seq_[{table, right.region_id}] = 0;
    }
    // The daughters' data was written by ExportRecords, not NoteWrite.
    if (base_row_cache_ != nullptr) base_row_cache_->Clear();
  }

  // Rebuild any local indexes over the daughters.
  if (hooks_ != nullptr) {
    hooks_->OnRegionOpened(table, left.region_id);
    hooks_->OnRegionOpened(table, right.region_id);
  }

  // Retire the parent's storage (its data now lives in the daughters),
  // once no compaction of it can write there any more.
  parent->StopCompactions();
  // Best-effort: a leftover directory wastes disk but affects no reads.
  lsm_options_.env
      ->RemoveDirRecursively(Region::DataDir(data_root_, table, region_id))
      .IgnoreError();
  DIFFINDEX_LOG_INFO << "server " << id_ << ": split " << table << "/r"
                     << region_id << " at '" << split_key << "' into r"
                     << left.region_id << " + r" << right.region_id;
  return Status::OK();
}

Status RegionServer::CloseRegionForMove(const std::string& table,
                                        uint64_t region_id) {
  if (stopped_.load()) return Status::Unavailable("region server stopped");
  auto region = FindRegionById(table, region_id);
  if (region == nullptr) return Status::WrongRegion(table);

  // Fence first (under the exclusive gate so no put is mid-pipeline),
  // then flush: after this no edit can land in this replica.
  {
    WriterMutexLock gate(region->flush_gate());
    region->set_closed();
  }
  DIFFINDEX_RETURN_NOT_OK(FlushRegionInternal(region));
  {
    WriterMutexLock lock(regions_mu_);
    regions_.erase({table, region_id});
    flushed_seq_.erase({table, region_id});
  }
  // The new owner opens the directory once this returns.
  region->StopCompactions();
  // The region's rows may come back (move away and return) after another
  // owner mutated them; cached `latest` claims would then be stale.
  if (base_row_cache_ != nullptr) base_row_cache_->Clear();
  DIFFINDEX_LOG_INFO << "server " << id_ << ": closed " << table << "/r"
                     << region_id << " for move";
  return Status::OK();
}

Status RegionServer::CloseRegion(const std::string& table,
                                 uint64_t region_id) {
  CHECK_YIELD("rs.region.close");
  std::shared_ptr<Region> region;
  {
    WriterMutexLock lock(regions_mu_);
    auto it = regions_.find({table, region_id});
    if (it != regions_.end()) {
      region = std::move(it->second);
      regions_.erase(it);
    }
    flushed_seq_.erase({table, region_id});
  }
  if (region != nullptr) region->StopCompactions();
  if (base_row_cache_ != nullptr) base_row_cache_->Clear();
  return Status::OK();
}

std::vector<RegionInfoWire> RegionServer::HostedRegions() const {
  ReaderMutexLock lock(regions_mu_);
  std::vector<RegionInfoWire> result;
  result.reserve(regions_.size());
  for (const auto& [key, region] : regions_) {
    result.push_back(region->info());
  }
  return result;
}

std::shared_ptr<Region> RegionServer::FindRegion(const std::string& table,
                                                 const Slice& row) const {
  ReaderMutexLock lock(regions_mu_);
  for (const auto& [key, region] : regions_) {
    if (key.first == table && region->ContainsRow(row)) return region;
  }
  return nullptr;
}

std::shared_ptr<Region> RegionServer::FindRegionById(
    const std::string& table, uint64_t region_id) const {
  ReaderMutexLock lock(regions_mu_);
  auto it = regions_.find({table, region_id});
  return it == regions_.end() ? nullptr : it->second;
}

Status RegionServer::Handle(MsgType type, Slice body, std::string* response) {
  switch (type) {
    case MsgType::kPut:
      return HandlePut(body, response);
    case MsgType::kGetCell:
      return HandleGetCell(body, response);
    case MsgType::kGetRow:
      return HandleGetRow(body, response);
    case MsgType::kScanRows:
      return HandleScanRows(body, response);
    case MsgType::kFlushRegion:
    case MsgType::kCompactRegion:
      return HandleRegionAdmin(type, body);
    case MsgType::kLocalIndexScan:
      return HandleLocalIndexScan(body, response);
    case MsgType::kMultiPut:
      return HandleMultiPut(body, response);
    case MsgType::kMultiGet:
      return HandleMultiGet(body, response);
    case MsgType::kIndexScan:
      return HandleIndexScan(body, response);
    default:
      return Status::NotSupported("region server: unexpected message type");
  }
}

Status RegionServer::LogAndApply(const std::shared_ptr<Region>& region,
                                 const PutRequest& put,
                                 Timestamp requested_ts,
                                 Timestamp* assigned_ts, PutResponse* resp) {
  MutexLock wlock(region->write_mu());
  // Under write_mu, so same-region ts order == apply order (see the
  // declaration comment — the sync observers' retraction reads rely on
  // this).
  const Timestamp ts = requested_ts != 0 ? requested_ts : oracle_.Next();
  *assigned_ts = ts;

  // Session consistency support: report each cell's previous value so the
  // client library can generate its private index entries/delete markers
  // (Section 5.2). Read here, under the same serialization as the ts
  // draw, so "previous" is exact — no concurrent same-row put can sit
  // between this snapshot and ts.
  if (resp != nullptr && put.return_old_values) {
    for (const Cell& cell : put.cells) {
      OldCellValue old;
      old.column = cell.column;
      std::string value;
      Timestamp old_ts = 0;
      Status s = region->tree()->Get(EncodeCellKey(put.row, cell.column),
                                     ts - kDelta, &value, &old_ts);
      if (s.ok()) {
        old.found = true;
        old.value = std::move(value);
        old.ts = old_ts;
      } else if (!s.IsNotFound()) {
        return s;  // nothing logged yet; "no old value" would be a lie
      }
      resp->old_values.push_back(std::move(old));
    }
  }

  WalEdit edit;
  edit.table = put.table;
  edit.region_id = region->info().region_id;
  edit.row = put.row;
  edit.cells = put.cells;
  edit.ts = ts;
  edit.seq = next_edit_seq_.fetch_add(1, std::memory_order_relaxed);

  std::string payload;
  edit.EncodeTo(&payload);
  uint64_t sync_ticket = 0;
  {
    MutexLock wal_lock(wal_mu_);
    WalFile& tail = wal_files_.back();
    // ANALYZER_WAIVE(blocking-under-lock): WAL appends serialize under
    // wal_mu by design — the Writer is not thread-safe and the ladder
    // places wal_mu above write_mu for exactly this append-in-order path.
    Status wal_status = tail.writer->AddRecord(payload);
    if (!wal_status.ok()) {
      // A failed append may have torn the tail file: anything written
      // after the tear would be unreadable at replay even though it was
      // acknowledged. Roll to a fresh file so the torn file's complete
      // prefix stays recoverable and later edits land past the tear.
      DIFFINDEX_LOG_WARN << "wal append failed (" << wal_status.ToString()
                         << "); rolling " << tail.path;
      Status roll_status = RollWalLocked();
      if (!roll_status.ok()) {
        DIFFINDEX_LOG_WARN << "wal roll after torn append failed: "
                           << roll_status.ToString();
      }
      return wal_status;
    }
    auto& max_seq =
        tail.region_max_seq[{put.table, region->info().region_id}];
    max_seq = std::max(max_seq, edit.seq);
    // Ticket = this append's ordinal; "synced through T" covers it.
    sync_ticket = wal_appends_.fetch_add(1, std::memory_order_relaxed) + 1;
    // Append-path segment roll: without it a write-heavy region that
    // rarely flushes would grow one unbounded segment that GC can never
    // reclaim piecewise.
    MaybeRollWalLocked();
  }
  if (options_.wal_sync == wal::SyncMode::kGroupCommit) {
    // Appended and ticketed but not yet durable: concurrent appends that
    // interleave here join this ticket's covering sync.
    CHECK_YIELD_RES("wal.ticket", &wal_sync_mu_);
    // One shared fsync covers every append up to the leader's window; the
    // put is not durable (and must not be acked) until it returns.
    DIFFINDEX_RETURN_NOT_OK(GroupCommitSync(sync_ticket));
  }
  if (lsm_options_.latency != nullptr) lsm_options_.latency->WalAppend();

  for (const Cell& cell : put.cells) {
    const std::string cell_key = EncodeCellKey(put.row, cell.column);
    if (cell.is_delete) {
      DIFFINDEX_RETURN_NOT_OK(region->tree()->Delete(cell_key, ts));
    } else {
      DIFFINDEX_RETURN_NOT_OK(region->tree()->Put(cell_key, cell.value, ts));
    }
    if (base_row_cache_ != nullptr) {
      // Write-through, still under write_mu and before the put is acked:
      // a reader that starts after the ack can never see an older version
      // from the cache. The verify callback reads the cell's newest
      // version straight back (memtable-resident — we just wrote it).
      base_row_cache_->NoteWrite(
          put.table, put.row, cell, ts, [&](Timestamp* newest_ts) {
            std::string newest_value;
            return region->tree()
                ->Get(cell_key, kMaxTimestamp, &newest_value, newest_ts)
                .ok();
          });
    }
  }
  region->tree()->set_applied_seq(edit.seq);
  return Status::OK();
}

Status RegionServer::GroupCommitSync(uint64_t ticket) {
  {
    MutexLock lock(wal_sync_mu_);
    // ANALYZER_WAIVE(blocking-under-lock): group-commit follower wait —
    // the elected leader always clears wal_sync_in_progress_ after its
    // fsync, so the wait is bounded by one sync and cannot self-deadlock.
    wal_sync_cv_.Wait(wal_sync_mu_, [&]() REQUIRES(wal_sync_mu_) {
      return synced_ticket_ >= ticket || !wal_sync_in_progress_;
    });
    if (synced_ticket_ >= ticket) return Status::OK();  // a leader covered us
    wal_sync_in_progress_ = true;  // become the leader
  }
  // Leader elected, sync not started: appends landing here are covered
  // by this sync's target read under wal_mu_ below.
  CHECK_YIELD_RES("wal.group_commit.lead", &wal_sync_mu_);
  // Optional window: let more concurrent appends join this sync. Latecomers
  // also batch naturally — they block above until this sync finishes, and
  // whoever leads next covers all of them at once.
  if (options_.wal_group_window_micros > 0) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(options_.wal_group_window_micros));
  }
  uint64_t target = 0;
  Status s;
  {
    // Sync under wal_mu_: the Writer is not thread-safe against concurrent
    // AddRecord. `target` is read under the same lock, so every append it
    // counts is fully in the file the sync flushes.
    MutexLock wal_lock(wal_mu_);
    target = wal_appends_.load(std::memory_order_relaxed);
    if (!wal_files_.empty() && wal_files_.back().writer != nullptr) {
      // ANALYZER_WAIVE(blocking-under-lock): the group-commit leader's
      // fsync under wal_mu is the protocol's point — `target` is read
      // under the same lock so every counted append is in the sync.
      s = wal_files_.back().writer->Sync();
    }
  }
  MutexLock lock(wal_sync_mu_);
  wal_sync_in_progress_ = false;
  if (s.ok() && target > synced_ticket_) {
    if (wal_group_size_hist_ != nullptr) {
      wal_group_size_hist_->Add(target - synced_ticket_);
    }
    synced_ticket_ = target;
  }
  // Wake everyone: covered followers return, uncovered ones (after a
  // failed sync) re-elect a leader and try again with their own error.
  wal_sync_cv_.SignalAll();
  return s;
}

std::optional<Status> RegionServer::BaseCacheGet(const std::string& table,
                                                 const Slice& row,
                                                 const Slice& column,
                                                 Timestamp read_ts,
                                                 std::string* value,
                                                 Timestamp* version_ts) {
  if (base_row_cache_ == nullptr) return std::nullopt;
  switch (base_row_cache_->Lookup(table, row, column, read_ts, value,
                                  version_ts)) {
    case BaseRowCache::Result::kHit:
      return Status::OK();
    case BaseRowCache::Result::kHitDeleted:
      return Status::NotFound(table + " (cached tombstone)");
    case BaseRowCache::Result::kMiss:
      break;
  }
  return std::nullopt;
}

Status RegionServer::CachedGet(const std::shared_ptr<Region>& region,
                               const std::string& table, const Slice& row,
                               const Slice& column, Timestamp read_ts,
                               std::string* value, Timestamp* version_ts) {
  if (auto cached =
          BaseCacheGet(table, row, column, read_ts, value, version_ts)) {
    return *cached;
  }
  return region->tree()->Get(EncodeCellKey(row, column), read_ts, value,
                             version_ts);
}

Status RegionServer::HandlePut(Slice body, std::string* response) {
  PutRequest put;
  if (!PutRequest::DecodeFrom(&body, &put)) {
    return Status::InvalidArgument("malformed put");
  }
  PutResponse resp;
  DIFFINDEX_RETURN_NOT_OK(ExecutePut(put, &resp));
  resp.EncodeTo(response);
  return Status::OK();
}

Status RegionServer::HandleMultiPut(Slice body, std::string* response) {
  MultiPutRequest req;
  if (!MultiPutRequest::DecodeFrom(&body, &req)) {
    return Status::InvalidArgument("malformed multi-put");
  }
  MultiPutResponse resp;
  resp.assigned_ts.reserve(req.puts.size());
  for (const PutRequest& put : req.puts) {
    // Per-row atomicity, as in HBase multi-puts: the batch is a transport
    // optimization, not a transaction. The first failure aborts the rest
    // (the client retries the batch; re-applied puts are idempotent only
    // with explicit timestamps, so report the error).
    PutResponse one;
    DIFFINDEX_RETURN_NOT_OK(ExecutePut(put, &one));
    resp.assigned_ts.push_back(one.assigned_ts);
  }
  resp.EncodeTo(response);
  return Status::OK();
}

bool RegionServer::AdmissionStalled(
    const std::shared_ptr<Region>& region) const {
  const uint64_t started = region->flush_started_micros();
  if (started != 0) {
    const uint64_t now = TimestampOracle::NowMicros();
    if (now > started && now - started > options_.admission_stall_micros) {
      return true;
    }
  }
  if (options_.admission_l0_slack >= 0 &&
      region->tree()->NumDiskStores() >=
          lsm_options_.compaction_trigger + options_.admission_l0_slack) {
    return true;
  }
  return false;
}

Status RegionServer::AdmitPut(const std::shared_ptr<Region>& region) {
  if (options_.admission_stall_micros == 0) return Status::OK();
  if (!AdmissionStalled(region)) return Status::OK();
  // Bounded delay, then shed: wait in 1ms slices for the stall to clear.
  // The delay counter advances by the nominal slice width (not measured
  // wall clock) so tests can assert exact deltas.
  constexpr uint64_t kSliceMicros = 1000;
  uint64_t waited = 0;
  bool cleared = false;
  while (waited < options_.admission_max_delay_micros) {
    std::this_thread::sleep_for(std::chrono::microseconds(kSliceMicros));
    waited += kSliceMicros;
    if (!AdmissionStalled(region)) {
      cleared = true;
      break;
    }
  }
  if (admission_delayed_counter_ != nullptr) {
    admission_delayed_counter_->Add();
  }
  if (admission_delayed_micros_counter_ != nullptr) {
    admission_delayed_micros_counter_->Add(waited);
  }
  if (cleared) return Status::OK();
  if (admission_rejected_counter_ != nullptr) {
    admission_rejected_counter_->Add();
  }
  return Status::ResourceExhausted(
      "region " + region->info().table + "/r" +
      std::to_string(region->info().region_id) + " stalled past " +
      std::to_string(options_.admission_max_delay_micros) + "us");
}

Status RegionServer::ExecutePut(const PutRequest& put, PutResponse* resp) {
  obs::SpanTimer span(options_.metrics, options_.traces, "rs.put");
  if (rs_put_counter_ != nullptr) rs_put_counter_->Add();
  if (!ValidName(put.row)) {
    return Status::InvalidArgument("row contains the cell separator");
  }
  for (const Cell& cell : put.cells) {
    if (!ValidName(cell.column)) {
      return Status::InvalidArgument("column contains the cell separator");
    }
  }
  auto region = FindRegion(put.table, put.row);
  if (region == nullptr) {
    return Status::WrongRegion(put.table + "/" + put.row);
  }

  // Admission control before the gate: a put that would only pile onto a
  // long-stalled flush gate (or onto runaway L0 debt) is delayed and then
  // bounced instead, keeping the stall out of the gate's queue. No lock
  // is held yet, so the wait blocks nothing else.
  DIFFINDEX_RETURN_NOT_OK(AdmitPut(region));

  // Decision point before the put enters its pipeline (gate, WAL,
  // memtable, index hooks): flushes and concurrent puts order here.
  CHECK_YIELD("rs.put.begin");
  const auto stall_start = std::chrono::steady_clock::now();
  ReaderMutexLock gate(region->flush_gate());
  const auto stall_end = std::chrono::steady_clock::now();
  const auto stalled = std::chrono::duration_cast<std::chrono::microseconds>(
                           stall_end - stall_start)
                           .count();
  if (stalled > 0) {
    flush_stall_micros_.fetch_add(static_cast<uint64_t>(stalled),
                                  std::memory_order_relaxed);
    if (flush_stall_hist_ != nullptr) {
      flush_stall_hist_->Add(static_cast<uint64_t>(stalled));
    }
  }

  if (region->closed()) {
    // Mid-move fence: the final flush already ran; no edit may land here.
    return Status::WrongRegion(put.table + " (region moving)");
  }

  Timestamp requested_ts = put.ts;
#ifdef DIFFINDEX_CHECK
  // Mutation hook (tests/check/mutation_regression_test.cc): the pre-fix
  // timestamp assignment, drawn before the region's write-serialized
  // section. Two same-row puts can then apply in the opposite order of
  // their timestamps, and a sync observer's retraction read at the later
  // ts misses the earlier, not-yet-applied version — a phantom entry the
  // model checker found and the fixed path (ts drawn inside LogAndApply's
  // write_mu section) prevents.
  if (requested_ts == 0 &&
      check::test_hooks::buggy_ts_outside_write_mu.load(
          std::memory_order_relaxed)) {
    requested_ts = oracle_.Next();
  }
#endif
  Timestamp ts = 0;
  DIFFINDEX_RETURN_NOT_OK(LogAndApply(region, put, requested_ts, &ts, resp));
  resp->assigned_ts = ts;

  // Diff-Index coprocessors: sync schemes complete their index operations
  // here (inside the put latency, as the paper measures); async schemes
  // enqueue into the AUQ. Still under the shared flush gate so the
  // drain-before-flush invariant holds.
  Status index_status = Status::OK();
  if (hooks_ != nullptr) {
    // ANALYZER_WAIVE(blocking-under-lock): sync-scheme index RPC inside
    // the put latency (paper §4.1) under the shared flush gate; the index
    // region's server never re-enters this base region's gate.
    index_status = hooks_->PostApply(put, ts);
  }

  gate.Release();

  if (!index_status.ok()) return index_status;

  if (region->tree()->NeedsFlush()) {
    DIFFINDEX_RETURN_NOT_OK(FlushRegionInternal(region));
  }
  return Status::OK();
}

Status RegionServer::HandleGetCell(Slice body, std::string* response) {
  GetCellRequest req;
  if (!GetCellRequest::DecodeFrom(&body, &req)) {
    return Status::InvalidArgument("malformed get");
  }
  auto region = FindRegion(req.table, req.row);
  if (region == nullptr) return Status::WrongRegion(req.table);

  GetCellResponse resp;
  std::string value;
  Timestamp ts = 0;
  Status s = CachedGet(region, req.table, req.row, req.column, req.read_ts,
                       &value, &ts);
  if (s.ok()) {
    resp.found = true;
    resp.value = std::move(value);
    resp.ts = ts;
  } else if (!s.IsNotFound()) {
    return s;
  }
  resp.EncodeTo(response);
  return Status::OK();
}

Status RegionServer::HandleGetRow(Slice body, std::string* response) {
  GetRowRequest req;
  if (!GetRowRequest::DecodeFrom(&body, &req)) {
    return Status::InvalidArgument("malformed get-row");
  }
  std::vector<RegionBatch> batches;
  for (size_t i = 0; i < req.rows.size(); i++) {
    // Every row must route here; a stale client layout fails the whole
    // batch so the client refreshes and regroups (reads are idempotent).
    auto region = FindRegion(req.table, req.rows[i]);
    if (region == nullptr) {
      return Status::WrongRegion(req.table + "/" + req.rows[i]);
    }
    BatchFor(region, &batches)->push_back(i);
  }

  GetRowResponse resp;
  resp.rows.resize(req.rows.size());
  std::vector<Slice> rows;
  for (RegionBatch& batch : batches) {
    std::sort(batch.members.begin(), batch.members.end(),
              [&req](size_t a, size_t b) { return req.rows[a] < req.rows[b]; });
    rows.assign(batch.members.size(), Slice());
    for (size_t j = 0; j < rows.size(); j++) {
      rows[j] = req.rows[batch.members[j]];
    }
    DIFFINDEX_RETURN_NOT_OK(batch.region->tree()->ScanRows(
        rows, req.read_ts,
        [&](size_t j, const Slice& cell_key, const Slice& value,
            Timestamp ts) {
          RowResult& result = resp.rows[batch.members[j]];
          result.found = true;
          const size_t column_at = rows[j].size() + 1;  // past row '\0'
          result.cells.push_back(
              RowCell{std::string(cell_key.data() + column_at,
                                  cell_key.size() - column_at),
                      value.ToString(), ts});
        }));
  }
  resp.EncodeTo(response);
  return Status::OK();
}

Status RegionServer::HandleScanRows(Slice body, std::string* response) {
  ScanRowsRequest req;
  if (!ScanRowsRequest::DecodeFrom(&body, &req)) {
    return Status::InvalidArgument("malformed scan");
  }
  // Scans address a region by row range: the client splits a table scan
  // by region boundaries, so start_row falls inside exactly one region.
  auto region = FindRegion(req.table, req.start_row);
  if (region == nullptr) return Status::WrongRegion(req.table);

  // Clamp to the region's key range.
  std::string start = RowScanStart(req.start_row);
  std::string end;
  if (!req.end_row.empty() &&
      (region->info().end_row.empty() ||
       req.end_row < region->info().end_row)) {
    end = RowScanStart(req.end_row);
  } else if (!region->info().end_row.empty()) {
    end = RowScanStart(region->info().end_row);
  }

  std::vector<LsmTree::ScanEntry> entries;
  // No cell-level limit: rows have multiple cells; over-fetch then trim.
  DIFFINDEX_RETURN_NOT_OK(
      region->tree()->Scan(start, end, req.read_ts, 0, &entries));

  ScanRowsResponse resp;
  GroupIntoRows(entries, &resp.rows);
  if (req.limit_rows != 0 && resp.rows.size() > req.limit_rows) {
    resp.rows.resize(req.limit_rows);
  }
  resp.EncodeTo(response);
  return Status::OK();
}

Status RegionServer::HandleRegionAdmin(MsgType type, Slice body) {
  RegionAdminRequest req;
  if (!RegionAdminRequest::DecodeFrom(&body, &req)) {
    return Status::InvalidArgument("malformed region admin request");
  }
  auto region = FindRegionById(req.table, req.region_id);
  if (region == nullptr) return Status::WrongRegion(req.table);
  if (type == MsgType::kFlushRegion) return FlushRegionAndWait(region);
  return region->tree()->CompactAll();
}

// Local index entries live in the region's side tree keyed as
// index_name '\0' index_row (index rows contain no 0x00 by construction,
// so the namespace split is unambiguous).
Status RegionServer::ApplyLocalIndex(const std::string& table,
                                     const Slice& base_row,
                                     const std::string& index_name,
                                     const std::string& index_row,
                                     Timestamp ts, bool is_delete) {
  auto region = FindRegion(table, base_row);
  if (region == nullptr) return Status::WrongRegion(table);
  MutexLock wlock(region->write_mu());
  DIFFINDEX_RETURN_NOT_OK(region->EnsureLocalIndexTree(lsm_options_));
  const std::string key = index_name + '\0' + index_row;
  if (is_delete) {
    // ANALYZER_WAIVE(log-before-apply): section 5 — local-index edits
    // are asynchronously derived and intentionally not WAL-logged;
    // recovery re-enqueues them from the base table's WAL, and the
    // AUQ dead-letter path covers the escape.
    return region->local_index_tree()->Delete(key, ts);
  }
  // ANALYZER_WAIVE(log-before-apply): same section 5 derived-write
  // argument as the delete arm above.
  return region->local_index_tree()->Put(key, "", ts);
}

Status RegionServer::ScanLocalIndex(const std::string& table,
                                    uint64_t region_id,
                                    const std::string& index_name,
                                    const std::string& start_key,
                                    const std::string& end_key,
                                    Timestamp read_ts, uint32_t limit,
                                    std::vector<RawEntry>* entries) {
  entries->clear();
  auto region = FindRegionById(table, region_id);
  if (region == nullptr) return Status::WrongRegion(table);
  if (region->local_index_tree() == nullptr) return Status::OK();  // empty

  const std::string prefix = index_name + '\0';
  std::string end = prefix;
  if (end_key.empty()) {
    end = index_name + '\x01';  // whole namespace of this index
  } else {
    end += end_key;
  }
  std::vector<LsmTree::ScanEntry> raw;
  DIFFINDEX_RETURN_NOT_OK(region->local_index_tree()->Scan(
      prefix + start_key, end, read_ts, limit, &raw));
  entries->reserve(raw.size());
  for (auto& entry : raw) {
    RawEntry out;
    out.key = entry.key.substr(prefix.size());  // strip the namespace
    out.value = std::move(entry.value);
    out.ts = entry.ts;
    entries->push_back(std::move(out));
  }
  return Status::OK();
}

Status RegionServer::ScanRegionRows(const std::string& table,
                                    uint64_t region_id,
                                    std::vector<ScannedRow>* rows) {
  rows->clear();
  auto region = FindRegionById(table, region_id);
  if (region == nullptr) return Status::WrongRegion(table);
  std::vector<LsmTree::ScanEntry> entries;
  DIFFINDEX_RETURN_NOT_OK(
      region->tree()->Scan("", "", kMaxTimestamp, 0, &entries));
  GroupIntoRows(entries, rows);
  return Status::OK();
}

Status RegionServer::HandleLocalIndexScan(Slice body,
                                          std::string* response) {
  LocalIndexScanRequest req;
  if (!LocalIndexScanRequest::DecodeFrom(&body, &req)) {
    return Status::InvalidArgument("malformed local index scan");
  }
  RawScanResponse resp;
  DIFFINDEX_RETURN_NOT_OK(ScanLocalIndex(req.table, req.region_id,
                                         req.index_name, req.start_key,
                                         req.end_key, req.read_ts, req.limit,
                                         &resp.entries));
  resp.EncodeTo(response);
  return Status::OK();
}

Status RegionServer::HandleMultiGet(Slice body, std::string* response) {
  MultiGetRequest req;
  if (!MultiGetRequest::DecodeFrom(&body, &req)) {
    return Status::InvalidArgument("malformed multi-get");
  }
  MultiGetResponse resp;
  resp.entries.resize(req.keys.size());
  std::vector<RegionBatch> misses;
  for (size_t i = 0; i < req.keys.size(); i++) {
    const MultiGetKey& key = req.keys[i];
    // Every key must route here; a stale client layout fails the whole
    // batch so the client refreshes and regroups (reads are idempotent).
    auto region = FindRegion(req.table, key.row);
    if (region == nullptr) {
      return Status::WrongRegion(req.table + "/" + key.row);
    }
    MultiGetEntry& entry = resp.entries[i];
    std::optional<Status> cached = BaseCacheGet(
        req.table, key.row, key.column, req.read_ts, &entry.value, &entry.ts);
    if (!cached.has_value()) {
      BatchFor(region, &misses)->push_back(i);
    } else if (cached->ok()) {
      entry.found = true;
    } else if (!cached->IsNotFound()) {
      return *cached;
    }
  }

  std::vector<std::string> cell_keys;
  std::vector<Slice> keys;
  std::vector<LsmTree::GetResult> results;
  for (RegionBatch& batch : misses) {
    // (row, column) order is cell-key order: rows hold no '\0'.
    std::sort(batch.members.begin(), batch.members.end(),
              [&req](size_t a, size_t b) {
                return std::tie(req.keys[a].row, req.keys[a].column) <
                       std::tie(req.keys[b].row, req.keys[b].column);
              });
    cell_keys.clear();
    for (size_t i : batch.members) {
      cell_keys.push_back(EncodeCellKey(req.keys[i].row, req.keys[i].column));
    }
    keys.assign(cell_keys.begin(), cell_keys.end());
    batch.region->tree()->MultiGet(keys, req.read_ts, &results);
    for (size_t k = 0; k < batch.members.size(); k++) {
      LsmTree::GetResult& result = results[k];
      if (result.status.IsNotFound()) continue;
      DIFFINDEX_RETURN_NOT_OK(result.status);
      MultiGetEntry& entry = resp.entries[batch.members[k]];
      entry.found = true;
      entry.value = std::move(result.value);
      entry.ts = result.ts;
    }
  }
  resp.EncodeTo(response);
  return Status::OK();
}

Status RegionServer::HandleIndexScan(Slice body, std::string* response) {
  IndexScanRequest req;
  if (!IndexScanRequest::DecodeFrom(&body, &req)) {
    return Status::InvalidArgument("malformed index scan");
  }
  // Addressed by region id: if the region moved away the leg fails fast
  // with WrongRegion instead of silently scanning a different key range.
  auto region = FindRegionById(req.table, req.region_id);
  if (region == nullptr) return Status::WrongRegion(req.table);

  // Clamp [start_key, end_key) — index-row bounds — to the region's
  // range. start_key may be a resume cursor (`row + '\0'`), which still
  // orders correctly because index rows contain no 0x00.
  std::string start = req.start_key;
  if (start < region->info().start_row) start = region->info().start_row;
  std::string end = req.end_key;
  if (!region->info().end_row.empty() &&
      (end.empty() || region->info().end_row < end)) {
    end = region->info().end_row;
  }

  // Index tables are key-only (one empty-named cell per entry), so cell
  // entries map 1:1 to index rows; scan one past the limit to learn
  // whether the leg was truncated.
  const uint32_t scan_limit = req.limit == 0 ? 0 : req.limit + 1;
  std::vector<LsmTree::ScanEntry> entries;
  DIFFINDEX_RETURN_NOT_OK(region->tree()->Scan(
      RowScanStart(start), end.empty() ? "" : RowScanStart(end), req.read_ts,
      scan_limit, &entries));

  IndexScanResponse resp;
  for (auto& entry : entries) {
    std::string row, column;
    if (!DecodeCellKey(entry.key, &row, &column)) continue;
    resp.entries.push_back(
        RawEntry{std::move(row), std::move(entry.value), entry.ts});
  }
  if (req.limit != 0 && resp.entries.size() > req.limit) {
    resp.entries.resize(req.limit);
    resp.more = true;
    resp.resume_key = resp.entries.back().key + '\0';
  }
  resp.EncodeTo(response);
  return Status::OK();
}

Status RegionServer::LocalGetCell(const std::string& table, const Slice& row,
                                  const Slice& column, Timestamp read_ts,
                                  std::string* value, Timestamp* version_ts) {
  auto region = FindRegion(table, row);
  if (region == nullptr) return Status::WrongRegion(table);
  return CachedGet(region, table, row, column, read_ts, value, version_ts);
}

Status RegionServer::FlushRegion(const std::string& table,
                                 uint64_t region_id) {
  // Control-plane fence: a crashed server must not touch the shared
  // region directory (its region may already be open on a survivor).
  if (stopped_.load()) return Status::Unavailable("region server stopped");
  auto region = FindRegionById(table, region_id);
  if (region == nullptr) return Status::WrongRegion(table);
  return FlushRegionAndWait(region);
}

Status RegionServer::FlushRegionAndWait(
    const std::shared_ptr<Region>& region) {
  DIFFINDEX_RETURN_NOT_OK(FlushRegionInternal(region));
  return region->WaitForCompactions();
}

Status RegionServer::FlushRegionInternal(
    const std::shared_ptr<Region>& region) {
  // Decision point before the flush claims the exclusive gate: puts
  // racing the flush order here.
  CHECK_YIELD("rs.flush.begin");
  // Admission signal: the stall clock starts when the flush begins
  // queueing on the gate (puts start stalling behind the pending writer,
  // not only once it is held) and stops on every exit path below.
  region->set_flush_started_micros(TimestampOracle::NowMicros());
  struct FlushMarkerReset {
    Region* region;
    ~FlushMarkerReset() { region->set_flush_started_micros(0); }
  } marker_reset{region.get()};
  // Exclusive gate: no put is mid-pipeline; every applied put's AUQ entry
  // is enqueued. PreFlush pauses intake and waits for the APS to drain —
  // this is "1. pause & drain / 2. flush / 3. roll forward" of Figure 5.
  WriterMutexLock gate(region->flush_gate());
  obs::SpanTimer flush_span(options_.metrics, options_.traces, "rs.flush");
  {
    // Drain-before-flush cost (Figure 5 step 1): how long this flush
    // waited for the AUQ to empty while holding the gate exclusively.
    obs::SpanTimer drain_span(options_.metrics, options_.traces,
                              "rs.flush_drain");
    // ANALYZER_WAIVE(blocking-under-lock): Figure 5 drain-before-flush —
    // the AUQ drain must finish while the gate is held exclusively or a
    // racing put could enqueue an update the flush then strands.
    if (hooks_ != nullptr) hooks_->PreFlush(region->info().table);
  }
  // §5.3 PR(Flushed) = ∅, checked on every explored schedule: after the
  // drain barrier the AUQ must be empty (intake is paused until
  // PostFlush, so it stays empty through the memtable swap).
  if (hooks_ != nullptr) {
    CHECK_POINT_VAL("rs.flush.drained_depth", hooks_->QueueDepth());
  }
  // ANALYZER_WAIVE(blocking-under-lock): the SSTable build + Sync runs
  // under the flush gate by design — flush must be exclusive of writers
  // (Figure 5), and the PR 9 admission controller is what bounds the
  // resulting stall, not lock scope.
  Status s = region->tree()->Flush();
  if (s.ok() && region->local_index_tree() != nullptr) {
    // Local-index writers serialize on write_mu, NOT the flush gate (the
    // post-open rebuild in OnRegionOpened writes without the gate), so the
    // gate alone does not make this flush safe: hold write_mu across it to
    // honor LsmTree's Put/Flush external-serialization contract.
    MutexLock wlock(region->write_mu());
    // ANALYZER_WAIVE(blocking-under-lock): same flush-exclusivity story
    // as the base-tree flush above, with write_mu added because local-
    // index writers serialize on it rather than the gate.
    s = region->local_index_tree()->Flush();
  }
  if (hooks_ != nullptr) hooks_->PostFlush(region->info().table);
  DIFFINDEX_RETURN_NOT_OK(s);
  flush_count_.fetch_add(1, std::memory_order_relaxed);
  if (rs_flush_counter_ != nullptr) rs_flush_counter_->Add();

  const auto key =
      std::make_pair(region->info().table, region->info().region_id);
  // applied_seq() reads the durable (manifest-persisted) sequence, which
  // the flush just advanced; the gate is held exclusively, so no put can
  // move it concurrently.
  const uint64_t covered_seq = region->tree()->applied_seq();
  {
    WriterMutexLock lock(regions_mu_);
    flushed_seq_[key] = covered_seq;
  }
  // Durable roll-forward mark for recovery. A write failure is tolerated:
  // the SSTables and the LSM manifest are already durable, and a stale
  // checkpoint only widens the next recovery's replay (the safe
  // direction). The next successful flush re-publishes it.
  RegionCheckpoint ckpt;
  ckpt.table = key.first;
  ckpt.region_id = key.second;
  ckpt.wal_seq = covered_seq;
  ckpt.flushed_ts = region->tree()->flushed_ts();
  Status ckpt_status = WriteRegionCheckpoint(lsm_options_.env, data_root_, ckpt);
  if (ckpt_status.ok()) {
    if (checkpoint_writes_counter_ != nullptr) checkpoint_writes_counter_->Add();
  } else {
    DIFFINDEX_LOG_WARN << "server " << id_ << ": checkpoint write for "
                       << key.first << "/r" << key.second
                       << " failed: " << ckpt_status.ToString();
    if (checkpoint_write_failed_counter_ != nullptr) {
      checkpoint_write_failed_counter_->Add();
    }
  }
  MutexLock wal_lock(wal_mu_);
  MaybeGcWalFilesLocked();
  MaybeRollWalLocked();
  return Status::OK();
}

Status RegionServer::FlushAll() {
  std::vector<std::shared_ptr<Region>> regions;
  {
    ReaderMutexLock lock(regions_mu_);
    for (const auto& [key, region] : regions_) regions.push_back(region);
  }
  for (const auto& region : regions) {
    DIFFINDEX_RETURN_NOT_OK(FlushRegionAndWait(region));
  }
  return Status::OK();
}

Status RegionServer::CompactRegion(const std::string& table,
                                   uint64_t region_id) {
  auto region = FindRegionById(table, region_id);
  if (region == nullptr) return Status::WrongRegion(table);
  return region->tree()->CompactAll();
}

Status RegionServer::RollWalLocked() {
  if (!wal_files_.empty() && wal_files_.back().writer != nullptr) {
    // Best-effort close of the outgoing tail: a sync/close failure must
    // not leave us stuck appending to a (possibly torn) file. Complete
    // records already in it remain replayable either way, and flushed
    // data does not need the WAL at all.
    // ANALYZER_WAIVE(blocking-under-lock): closing fsync of the retiring
    // segment stays under wal_mu so no append can slip into the old tail
    // between its last sync and the switch to the new file.
    Status s = wal_files_.back().writer->Sync();
    if (!s.ok()) {
      DIFFINDEX_LOG_WARN << "wal sync on roll failed: " << s.ToString();
    }
    s = wal_files_.back().writer->Close();
    if (!s.ok()) {
      DIFFINDEX_LOG_WARN << "wal close on roll failed: " << s.ToString();
    }
    wal_files_.back().writer.reset();
  }
  WalFile file;
  file.file_seq = next_wal_file_seq_++;
  file.path = wal_dir_ + "/" + std::to_string(file.file_seq) + ".log";
  DIFFINDEX_RETURN_NOT_OK(wal::Writer::Open(lsm_options_.env, file.path,
                                            options_.wal_sync,
                                            &file.writer));
  wal_files_.push_back(std::move(file));
  if (wal_segments_gauge_ != nullptr) {
    wal_segments_gauge_->Set(static_cast<int64_t>(wal_files_.size()));
  }
  return Status::OK();
}

void RegionServer::MaybeRollWalLocked() {
  if (wal_files_.empty() || wal_files_.back().writer == nullptr) return;
  if (wal_files_.back().writer->bytes_written() < options_.wal_segment_bytes) {
    return;
  }
  // Sync before retiring the tail: once it stops being the sync target, a
  // group-commit ack could otherwise cover an edit that never reached
  // disk. A sync failure just defers the roll to a later attempt.
  // ANALYZER_WAIVE(blocking-under-lock): the pre-roll fsync must happen
  // under wal_mu — releasing it would let appends land in a tail that is
  // about to stop being the sync target, un-covering acked edits.
  Status s = wal_files_.back().writer->Sync();
  if (!s.ok()) {
    DIFFINDEX_LOG_WARN << "wal sync before segment roll failed: "
                       << s.ToString();
    return;
  }
  s = RollWalLocked();
  if (!s.ok()) {
    DIFFINDEX_LOG_WARN << "wal segment roll failed: " << s.ToString();
  }
}

void RegionServer::MaybeGcWalFilesLocked() {
  CHECK_YIELD_RES("wal.gc.begin", &wal_mu_);
  // Fault seam: an armed "wal.gc" point skips this whole pass, modeling a
  // stalled collector. Nothing depends on GC timeliness — a skipped pass
  // is retried on the next flush or background sweep.
  if (fault::FailpointRegistry::Global()->Fires("wal.gc")) return;
  // A closed WAL file is deletable once every region mentioned in it has
  // flushed past the file's highest edit for that region ("roll
  // forward") — a per-region refinement of the min-checkpoint rule: the
  // file's max seq per region is compared against that region's own
  // checkpoint instead of the min across all hosted regions.
  std::map<std::pair<std::string, uint64_t>, uint64_t> flushed;
  {
    ReaderMutexLock lock(regions_mu_);
    flushed = flushed_seq_;
  }
  for (auto it = wal_files_.begin(); it != wal_files_.end();) {
    if (it->writer != nullptr) {  // open tail: never GC'd
      ++it;
      continue;
    }
    bool deletable = true;
    for (const auto& [region_key, max_seq] : it->region_max_seq) {
      auto fit = flushed.find(region_key);
      // Regions moved away keep the file pinned conservatively.
      if (fit == flushed.end() || fit->second < max_seq) {
        deletable = false;
        break;
      }
    }
    if (deletable) {
      // Best-effort GC: an undeletable log is retried next pass, and
      // replaying fully-flushed edits is idempotent anyway.
      lsm_options_.env->RemoveFile(it->path).IgnoreError();
      if (wal_gc_deleted_counter_ != nullptr) wal_gc_deleted_counter_->Add();
      it = wal_files_.erase(it);
    } else {
      ++it;
    }
  }
  if (wal_segments_gauge_ != nullptr) {
    wal_segments_gauge_->Set(static_cast<int64_t>(wal_files_.size()));
  }
}

}  // namespace diffindex
