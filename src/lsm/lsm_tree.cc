#include "lsm/lsm_tree.h"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "fault/failpoint.h"
#include "lsm/compactor.h"
#include "lsm/merging_iterator.h"
#include "util/logging.h"

namespace diffindex {

namespace {

constexpr char kManifestName[] = "TABLES";
constexpr char kManifestTmpName[] = "TABLES.tmp";

bool HasSstSuffix(const std::string& name) {
  constexpr std::string_view kSuffix = ".sst";
  return name.size() > kSuffix.size() &&
         name.compare(name.size() - kSuffix.size(), kSuffix.size(),
                      kSuffix) == 0;
}

}  // namespace

LsmTree::LsmTree(const LsmOptions& options, std::string dir)
    : options_(options),
      dir_(std::move(dir)),
      state_(std::make_shared<const State>(
          State{std::make_shared<MemTable>(), nullptr, {}})) {
  if (options_.metrics != nullptr) {
    point_gets_ = options_.metrics->GetCounter("lsm.point_gets");
    get_sst_seeks_ = options_.metrics->GetCounter("lsm.sst_seeks.get");
    row_reads_ = options_.metrics->GetCounter("lsm.row_reads");
    row_sst_seeks_ = options_.metrics->GetCounter("lsm.sst_seeks.row");
  }
}

// The reads of one Get / MultiGet / ScanRows call: one state snapshot, and
// per source one iterator made on first use and moved by seeks.
class LsmTree::ReadBatch {
 public:
  explicit ReadBatch(std::shared_ptr<const State> state)
      : state_(std::move(state)), tables_(state_->tables.size()) {}

  // Newest version of `key` visible at read_ts across every source; a
  // non-OK status if a disk store that may hold the key is unreadable.
  LookupResult Lookup(const Slice& key, Timestamp read_ts) {
    LookupResult best;
    auto consider = [&best](LookupResult& candidate) {
      if (candidate.state == LookupState::kNotPresent) return;
      if (best.state == LookupState::kNotPresent || candidate.ts > best.ts) {
        best = std::move(candidate);
      }
    };
    // The memtable (and then imm) hold strictly newer timestamps than
    // disk stores, so for latest-reads a hit there is final; historical
    // reads must merge across every source because compaction mixes
    // ages.
    LookupResult mem = state_->mem->Get(key, read_ts);
    consider(mem);
    if (read_ts == kMaxTimestamp && best.state != LookupState::kNotPresent) {
      return best;
    }
    if (state_->imm != nullptr) {
      LookupResult imm = state_->imm->Get(key, read_ts);
      consider(imm);
      if (read_ts == kMaxTimestamp &&
          best.state != LookupState::kNotPresent) {
        return best;
      }
    }
    for (size_t i = 0; i < tables_.size(); i++) {
      const SstReader& table = *state_->tables[i];
      if (!table.KeyMayMatch(key)) continue;
      LookupResult candidate = Table(i)->Get(key, read_ts);
      // An unreadable block may hold the newest version: answering from
      // another store (or NotFound) would hide the corruption.
      if (!candidate.status.ok()) return candidate;
      consider(candidate);
    }
    return best;
  }

  // Visits the newest visible version of every live cell of `row`.
  Status ReadRow(const Slice& row, size_t row_index, Timestamp read_ts,
                 const CellVisitor& visit) {
    prefix_.assign(row.data(), row.size());
    prefix_.push_back(kRowSeparator);
    target_.clear();
    AppendInternalKey(&target_, prefix_, kMaxTimestamp,
                      ValueType::kTombstone);
    sources_.clear();
    if (mem_iter_ == nullptr) mem_iter_ = state_->mem->NewIterator();
    sources_.push_back(mem_iter_.get());
    if (state_->imm != nullptr) {
      if (imm_iter_ == nullptr) imm_iter_ = state_->imm->NewIterator();
      sources_.push_back(imm_iter_.get());
    }
    for (size_t i = 0; i < tables_.size(); i++) {
      const SstReader& table = *state_->tables[i];
      if (table.RowMayMatch(row)) sources_.push_back(Table(i));
    }
    for (RecordIterator* source : sources_) source->Seek(target_);

    // Merge the sources (youngest first on equal keys, as the merging
    // iterator does) until every one has left the row.
    bool have_key = false;
    bool decided = false;
    for (;;) {
      RecordIterator* next = nullptr;
      for (RecordIterator* source : sources_) {
        if (source->Valid() &&
            (next == nullptr || cmp_.Compare(source->key(), next->key()) < 0)) {
          next = source;
        }
      }
      if (next == nullptr) break;
      ParsedInternalKey parsed;
      if (!ParseInternalKey(next->key(), &parsed)) {
        return Status::Corruption("row read: malformed internal key");
      }
      if (!parsed.user_key.starts_with(prefix_)) break;
      if (!have_key || parsed.user_key != Slice(cell_key_)) {
        cell_key_.assign(parsed.user_key.data(), parsed.user_key.size());
        have_key = true;
        decided = false;
      }
      // The newest visible version decides the cell; a tombstone hides it.
      if (!decided && parsed.ts <= read_ts) {
        decided = true;
        if (parsed.type == ValueType::kPut) {
          visit(row_index, parsed.user_key, next->value(), parsed.ts);
        }
      }
      next->Next();
    }
    for (RecordIterator* source : sources_) {
      DIFFINDEX_RETURN_NOT_OK(source->status());
    }
    return Status::OK();
  }

  // SST blocks looked up so far (block-cache hits and misses).
  uint64_t BlocksRead() const {
    uint64_t n = 0;
    for (const auto& table : tables_) {
      if (table != nullptr) n += table->blocks_read();
    }
    return n;
  }

 private:
  SstIterator* Table(size_t i) {
    if (tables_[i] == nullptr) {
      const SstReader& table = *state_->tables[i];
      tables_[i] = table.NewIterator();
    }
    return tables_[i].get();
  }

  const std::shared_ptr<const State> state_;
  std::vector<std::unique_ptr<SstIterator>> tables_;
  std::unique_ptr<RecordIterator> mem_iter_;
  std::unique_ptr<RecordIterator> imm_iter_;
  std::vector<RecordIterator*> sources_;
  InternalKeyComparator cmp_;
  std::string prefix_;
  std::string target_;
  std::string cell_key_;
};

namespace {

// Get's answer from a lookup result.
Status FinishGet(LookupResult* result, std::string* value,
                 Timestamp* version_ts) {
  if (!result->status.ok()) return result->status;
  if (result->state != LookupState::kFound) return Status::NotFound();
  *value = std::move(result->value);
  if (version_ts != nullptr) *version_ts = result->ts;
  return Status::OK();
}

void AddTo(obs::Counter* counter, uint64_t n) {
  if (counter != nullptr) counter->Add(n);
}

}  // namespace

std::string LsmTree::SstPath(uint64_t file_number) const {
  char buf[32];
  snprintf(buf, sizeof(buf), "%08llu.sst",
           static_cast<unsigned long long>(file_number));
  return dir_ + "/" + buf;
}

Status LsmTree::Open(const LsmOptions& options, const std::string& dir,
                     std::unique_ptr<LsmTree>* tree) {
  DIFFINDEX_RETURN_NOT_OK(options.env->CreateDirIfMissing(dir));
  // ANALYZER_WAIVE(naked-new): private-ctor factory
  std::unique_ptr<LsmTree> t(new LsmTree(options, dir));
  DIFFINDEX_RETURN_NOT_OK(t->RecoverManifest());
  *tree = std::move(t);
  return Status::OK();
}

Status LsmTree::RecoverManifest() {
  Env* env = options_.env;
  const std::string manifest_path = dir_ + "/" + kManifestName;

  std::vector<uint64_t> live_files;
  if (env->FileExists(manifest_path)) {
    std::unique_ptr<SequentialFile> file;
    DIFFINDEX_RETURN_NOT_OK(env->NewSequentialFile(manifest_path, &file));
    std::string content;
    char buf[4096];
    for (;;) {
      Slice chunk;
      DIFFINDEX_RETURN_NOT_OK(file->Read(sizeof(buf), &chunk, buf));
      if (chunk.empty()) break;
      content.append(chunk.data(), chunk.size());
    }
    std::istringstream in(content);
    std::string token;
    while (in >> token) {
      if (token == "flushed_ts") {
        Timestamp ts;
        if (!(in >> ts)) return Status::Corruption("manifest: flushed_ts");
        flushed_ts_.store(ts, std::memory_order_release);
      } else if (token == "applied_seq") {
        uint64_t seq;
        if (!(in >> seq)) return Status::Corruption("manifest: applied_seq");
        durable_seq_.store(seq, std::memory_order_release);
        applied_seq_.store(seq, std::memory_order_release);
      } else if (token == "next_file") {
        uint64_t next;
        if (!(in >> next)) return Status::Corruption("manifest: next_file");
        next_file_number_.store(next, std::memory_order_relaxed);
      } else if (token == "file") {
        uint64_t num;
        if (!(in >> num)) return Status::Corruption("manifest: file");
        live_files.push_back(num);
      } else {
        return Status::Corruption("manifest: unknown token " + token);
      }
    }
  }

  // Newest first (higher file numbers are younger: flushes and compaction
  // outputs always take fresh numbers).
  std::sort(live_files.rbegin(), live_files.rend());
  std::vector<std::shared_ptr<SstReader>> tables;
  for (uint64_t num : live_files) {
    std::shared_ptr<SstReader> reader;
    DIFFINDEX_RETURN_NOT_OK(
        SstReader::Open(options_, SstPath(num), num, &reader));
    tables.push_back(std::move(reader));
    if (next_file_number_.load(std::memory_order_relaxed) <= num) {
      next_file_number_.store(num + 1, std::memory_order_relaxed);
    }
  }
  {
    // Recovery runs before any reader thread exists, but state_ is
    // GUARDED_BY(state_mu_) and the guard contract stays uniform.
    MutexLock lock(state_mu_);
    State next = *state_;
    next.tables = std::move(tables);
    Install(std::move(next));
  }

  // Remove orphaned .sst files (e.g. a compaction output that was written
  // but never committed to the manifest before a crash).
  std::vector<std::string> children;
  DIFFINDEX_RETURN_NOT_OK(env->GetChildren(dir_, &children));
  for (const auto& name : children) {
    if (!HasSstSuffix(name)) continue;
    const uint64_t num = strtoull(name.c_str(), nullptr, 10);
    if (std::find(live_files.begin(), live_files.end(), num) ==
        live_files.end()) {
      DIFFINDEX_LOG_INFO << "lsm: removing orphan " << dir_ << "/" << name;
      // Best-effort: an orphan that survives is retried on the next open.
      env->RemoveFile(dir_ + "/" + name).IgnoreError();
    }
  }
  return Status::OK();
}

Status LsmTree::WriteManifest() {
  MutexLock lock(manifest_mu_);
  std::ostringstream out;
  out << "flushed_ts " << flushed_ts_.load(std::memory_order_acquire) << "\n";
  out << "applied_seq " << durable_seq_.load(std::memory_order_acquire)
      << "\n";
  out << "next_file " << next_file_number_.load(std::memory_order_relaxed)
      << "\n";
  for (const auto& table : Snapshot()->tables) {
    out << "file " << table->meta().file_number << "\n";
  }
  const std::string tmp_path = dir_ + "/" + kManifestTmpName;
  std::unique_ptr<WritableFile> file;
  DIFFINDEX_RETURN_NOT_OK(options_.env->NewWritableFile(tmp_path, &file));
  DIFFINDEX_RETURN_NOT_OK(file->Append(out.str()));
  // ANALYZER_WAIVE(blocking-under-lock): manifest_mu_ exists to serialize
  // exactly this durable write between a flush and a compaction job, and
  // a flush holds the gate exclusively around it — that is the gate's
  // job, not an accidental blocking call.
  DIFFINDEX_RETURN_NOT_OK(file->Sync());
  DIFFINDEX_RETURN_NOT_OK(file->Close());
  return options_.env->RenameFile(tmp_path, dir_ + "/" + kManifestName);
}

std::shared_ptr<const LsmTree::State> LsmTree::Snapshot() const {
  MutexLock lock(state_mu_);
  return state_;
}

void LsmTree::Install(State next) {
  state_ = std::make_shared<const State>(std::move(next));
}

Status LsmTree::Put(const Slice& key, const Slice& value, Timestamp ts) {
  num_puts_.fetch_add(1, std::memory_order_relaxed);
  std::shared_ptr<MemTable> mem;
  {
    MutexLock lock(state_mu_);
    mem = state_->mem;
  }
  // ANALYZER_WAIVE(log-before-apply): LsmTree is WAL-agnostic by
  // contract — logging is the caller's job (LogAndApply appends before
  // calling Put), and the replay / local-index callers apply edits
  // that are intentionally not re-logged.
  mem->Add(key, ts, ValueType::kPut, value);
  return Status::OK();
}

Status LsmTree::Delete(const Slice& key, Timestamp ts) {
  num_puts_.fetch_add(1, std::memory_order_relaxed);
  std::shared_ptr<MemTable> mem;
  {
    MutexLock lock(state_mu_);
    mem = state_->mem;
  }
  // ANALYZER_WAIVE(log-before-apply): same caller-logs contract as Put.
  mem->Add(key, ts, ValueType::kTombstone, Slice());
  return Status::OK();
}

bool LsmTree::NeedsFlush() const {
  MutexLock lock(state_mu_);
  return state_->mem->DataBytes() >= options_.memtable_flush_bytes;
}

Status LsmTree::Flush() {
  const auto flush_start = std::chrono::steady_clock::now();
  std::shared_ptr<MemTable> imm;
  uint64_t seq_at_swap;
  {
    MutexLock lock(state_mu_);
    // The caller serializes Flush against Put/Delete, so every edit up to
    // applied_seq_ is in the memtable being swapped out.
    seq_at_swap = applied_seq_.load(std::memory_order_acquire);
    if (state_->mem->NumEntries() == 0) return Status::OK();
    State next = *state_;
    next.imm = std::move(next.mem);
    next.mem = std::make_shared<MemTable>();
    imm = next.imm;
    Install(std::move(next));
  }

  const uint64_t file_number = next_file_number_.fetch_add(1);
  SstMeta meta;
  auto iter = imm->NewIterator();
  Status build_status =
      fault::FailpointRegistry::Global()->MaybeFail("lsm.flush");
  if (build_status.ok()) {
    build_status = BuildSstFromIterator(options_, SstPath(file_number),
                                        file_number, iter.get(), &meta);
  }
  if (!build_status.ok()) {
    // Put the memtable back so no data is lost; the caller may retry. The
    // caller serializes Flush against Put/Delete, so mem is still the empty
    // table installed at swap time and imm can slot straight back in. If a
    // write did race in, keep imm readable instead of merging.
    // Best-effort: the half-built store is not in the manifest, so a
    // failed delete just leaves an orphan for the next open to collect.
    options_.env->RemoveFile(SstPath(file_number)).IgnoreError();
    MutexLock lock(state_mu_);
    if (state_->mem->NumEntries() == 0) {
      State next = *state_;
      next.mem = std::move(next.imm);
      Install(std::move(next));
    }
    return build_status;
  }
  meta.file_number = file_number;

  std::shared_ptr<SstReader> reader;
  DIFFINDEX_RETURN_NOT_OK(
      SstReader::Open(options_, SstPath(file_number), file_number, &reader));

  Timestamp flushed = imm->MaxTimestamp();
  {
    MutexLock lock(state_mu_);
    State next = *state_;
    next.tables.insert(next.tables.begin(), std::move(reader));
    next.imm.reset();
    Install(std::move(next));
  }
  Timestamp prev = flushed_ts_.load(std::memory_order_acquire);
  while (flushed > prev && !flushed_ts_.compare_exchange_weak(
                               prev, flushed, std::memory_order_acq_rel)) {
  }
  durable_seq_.store(seq_at_swap, std::memory_order_release);
  DIFFINDEX_RETURN_NOT_OK(WriteManifest());

  if (options_.metrics != nullptr) {
    options_.metrics->GetCounter("lsm.flush")->Add();
    const auto micros = std::chrono::duration_cast<std::chrono::microseconds>(
                            std::chrono::steady_clock::now() - flush_start)
                            .count();
    options_.metrics->GetHistogram("lsm.flush_micros")
        ->Add(static_cast<uint64_t>(micros));
  }

  if (options_.compactor != nullptr &&
      NumDiskStores() >= options_.compaction_trigger) {
    RequestCompaction(/*forced=*/false);
  }
  return Status::OK();
}

LsmTree::~LsmTree() { StopCompaction(); }

Status LsmTree::CompactAll() {
  if (options_.compactor == nullptr) return MergeAllStores();
  RequestCompaction(/*forced=*/true);
  return WaitForCompaction();
}

void LsmTree::RequestCompaction(bool forced) {
  bool run_here = false;
  {
    MutexLock lock(job_mu_);
    if (compaction_stopped_) {
      if (forced) job_status_ = Status::Aborted("compaction stopped");
      return;
    }
    if (forced) job_forced_ = true;
    switch (job_state_) {
      case JobState::kQueued:
        return;  // the queued job has not read the store list yet
      case JobState::kRunning:
        job_rerun_ = true;
        return;
      case JobState::kIdle:
        run_here = HandOffLocked();
        break;
    }
  }
  if (run_here) RunCompactionJob();
}

bool LsmTree::HandOffLocked() {
  switch (options_.compactor->Enqueue(this)) {
    case Compactor::Handoff::kQueued:
      job_state_ = JobState::kQueued;
      return false;
    case Compactor::Handoff::kRunHere:
      job_state_ = JobState::kQueued;
      return true;
    case Compactor::Handoff::kRefused:
      break;
  }
  job_status_ = Status::Aborted("compactor shut down");
  job_cv_.SignalAll();
  return false;
}

void LsmTree::RunCompactionJob() {
  for (;;) {
    {
      MutexLock lock(job_mu_);
      if (compaction_stopped_) {
        job_state_ = JobState::kIdle;
        options_.compactor->JobEnded();
        job_cv_.SignalAll();
        return;
      }
      job_state_ = JobState::kRunning;
      job_rerun_ = false;
      job_forced_ = false;
    }
    const Status s = MergeAllStores();
    bool run_again = false;
    {
      MutexLock lock(job_mu_);
      job_status_ = s;
      job_state_ = JobState::kIdle;
      options_.compactor->JobEnded();
      if (job_rerun_ && !compaction_stopped_ &&
          (job_forced_ ||
           NumDiskStores() >= options_.compaction_trigger)) {
        run_again = HandOffLocked();
      }
      job_rerun_ = false;
      // Nothing touches the tree after this: a fence waiting for kIdle
      // may destroy it as soon as job_mu_ is released.
      if (job_state_ == JobState::kIdle) job_cv_.SignalAll();
    }
    if (!run_again) return;
  }
}

void LsmTree::AbandonQueuedJob() {
  MutexLock lock(job_mu_);
  job_state_ = JobState::kIdle;
  job_status_ = Status::Aborted("compactor shut down");
  job_cv_.SignalAll();
}

Status LsmTree::WaitForCompaction() {
  MutexLock lock(job_mu_);
  job_cv_.Wait(job_mu_, [this]() REQUIRES(job_mu_) {
    return job_state_ == JobState::kIdle;
  });
  Status s = std::move(job_status_);
  job_status_ = Status::OK();
  return s;
}

void LsmTree::StopCompaction() {
  MutexLock lock(job_mu_);
  compaction_stopped_ = true;
  if (job_state_ == JobState::kQueued &&
      options_.compactor->Cancel(this)) {
    // A CompactAll may be waiting for the job that will now never run.
    job_state_ = JobState::kIdle;
    job_status_ = Status::Aborted("compaction stopped");
    job_cv_.SignalAll();
  }
  // A job the thread already took sees the fence when it starts or before
  // it installs its output.
  job_cv_.Wait(job_mu_, [this]() REQUIRES(job_mu_) {
    return job_state_ == JobState::kIdle;
  });
}

Status LsmTree::MergeAllStores() {
  const auto compact_start = std::chrono::steady_clock::now();
  const std::vector<std::shared_ptr<SstReader>> inputs = Snapshot()->tables;
  if (inputs.size() <= 1) return Status::OK();
  DIFFINDEX_FAILPOINT("lsm.compaction");

  const uint64_t file_number = next_file_number_.fetch_add(1);
  SstMeta meta;
  CompactionStats stats;
  // Every disk store of the snapshot takes part, and the memtable and the
  // stores flushed meanwhile only hold newer timestamps, so tombstones can
  // be dropped (major compaction).
  DIFFINDEX_RETURN_NOT_OK(CompactTables(options_, inputs,
                                        SstPath(file_number), file_number,
                                        /*drop_tombstones=*/true, &meta,
                                        &stats));

  std::shared_ptr<SstReader> reader;
  DIFFINDEX_RETURN_NOT_OK(
      SstReader::Open(options_, SstPath(file_number), file_number, &reader));
  {
    // Fenced while the output was built: the region may already be open
    // elsewhere. Install nothing; the next Open collects the orphan.
    MutexLock lock(job_mu_);
    if (compaction_stopped_) return Status::Aborted("compaction stopped");
  }

  std::vector<std::shared_ptr<SstReader>> obsolete;
  {
    MutexLock lock(state_mu_);
    // Tables flushed while we compacted stay in front.
    State next = *state_;
    next.tables.clear();
    for (const auto& t : state_->tables) {
      if (std::find(inputs.begin(), inputs.end(), t) == inputs.end()) {
        next.tables.push_back(t);
      } else {
        obsolete.push_back(t);
      }
    }
    next.tables.push_back(std::move(reader));
    Install(std::move(next));
  }
  DIFFINDEX_RETURN_NOT_OK(WriteManifest());
  for (const auto& t : obsolete) {
    // Best-effort: inputs already left the manifest; a failed delete
    // leaves an orphan for the next open to collect.
    options_.env->RemoveFile(SstPath(t->meta().file_number)).IgnoreError();
    // No new read can reach the table's blocks; free their cache charge
    // now instead of waiting for LRU eviction.
    t->EraseCachedBlocks();
  }
  if (options_.metrics != nullptr) {
    options_.metrics->GetCounter("lsm.compaction")->Add();
    options_.metrics->GetCounter("lsm.compaction.input_records")
        ->Add(stats.input_records);
    options_.metrics->GetCounter("lsm.compaction.output_records")
        ->Add(stats.output_records);
    options_.metrics->GetCounter("lsm.compaction.dropped_masked")
        ->Add(stats.dropped_masked);
    options_.metrics->GetCounter("lsm.compaction.dropped_versions")
        ->Add(stats.dropped_versions);
    options_.metrics->GetCounter("lsm.compaction.dropped_tombstones")
        ->Add(stats.dropped_tombstones);
    const auto micros = std::chrono::duration_cast<std::chrono::microseconds>(
                            std::chrono::steady_clock::now() - compact_start)
                            .count();
    options_.metrics->GetHistogram("lsm.compaction_micros")
        ->Add(static_cast<uint64_t>(micros));
  }
  DIFFINDEX_LOG_DEBUG << "lsm: compacted " << inputs.size() << " stores, "
                      << stats.input_records << " -> "
                      << stats.output_records << " records in " << dir_;
  return Status::OK();
}

Status LsmTree::Get(const Slice& key, Timestamp read_ts, std::string* value,
                    Timestamp* version_ts) {
  num_gets_.fetch_add(1, std::memory_order_relaxed);
  ReadBatch batch(Snapshot());
  LookupResult result = batch.Lookup(key, read_ts);
  AddTo(point_gets_, 1);
  AddTo(get_sst_seeks_, batch.BlocksRead());
  return FinishGet(&result, value, version_ts);
}

void LsmTree::MultiGet(const std::vector<Slice>& keys, Timestamp read_ts,
                       std::vector<GetResult>* out) {
  num_gets_.fetch_add(keys.size(), std::memory_order_relaxed);
  ReadBatch batch(Snapshot());
  out->resize(keys.size());
  for (size_t i = 0; i < keys.size(); i++) {
    LookupResult result = batch.Lookup(keys[i], read_ts);
    GetResult& slot = (*out)[i];
    slot.status = FinishGet(&result, &slot.value, &slot.ts);
  }
  AddTo(point_gets_, keys.size());
  AddTo(get_sst_seeks_, batch.BlocksRead());
}

Status LsmTree::ScanRows(const std::vector<Slice>& rows, Timestamp read_ts,
                         const CellVisitor& visit) {
  ReadBatch batch(Snapshot());
  Status s;
  for (size_t i = 0; i < rows.size() && s.ok(); i++) {
    s = batch.ReadRow(rows[i], i, read_ts, visit);
  }
  AddTo(row_reads_, rows.size());
  AddTo(row_sst_seeks_, batch.BlocksRead());
  return s;
}

std::unique_ptr<RecordIterator> LsmTree::NewInternalIterator(
    const State& state) {
  std::vector<std::unique_ptr<RecordIterator>> children;
  children.push_back(state.mem->NewIterator());
  if (state.imm != nullptr) children.push_back(state.imm->NewIterator());
  for (const auto& table : state.tables) {
    children.push_back(table->NewIterator());
  }
  return NewMergingIterator(std::move(children));
}

Status LsmTree::Scan(const Slice& start, const Slice& end, Timestamp read_ts,
                     size_t limit, std::vector<ScanEntry>* out) {
  out->clear();
  const std::shared_ptr<const State> state = Snapshot();
  auto iter = NewInternalIterator(*state);

  const std::string seek_target =
      MakeInternalKey(start, kMaxTimestamp, ValueType::kTombstone);
  iter->Seek(seek_target);

  std::string current_key;
  bool have_current = false;
  bool decided_current = false;

  for (; iter->Valid(); iter->Next()) {
    ParsedInternalKey parsed;
    if (!ParseInternalKey(iter->key(), &parsed)) {
      return Status::Corruption("scan: malformed internal key");
    }
    if (!end.empty() && parsed.user_key.compare(end) >= 0) break;

    if (!have_current || parsed.user_key != Slice(current_key)) {
      current_key = parsed.user_key.ToString();
      have_current = true;
      decided_current = false;
    }
    if (decided_current) continue;           // older version of same key
    if (parsed.ts > read_ts) continue;       // not visible yet

    decided_current = true;  // newest visible version decides the key
    if (parsed.type == ValueType::kPut) {
      out->push_back(ScanEntry{current_key, iter->value().ToString(),
                               parsed.ts});
      if (limit != 0 && out->size() >= limit) break;
    }
    // Tombstone: key absent at read_ts; skip the rest of its versions.
  }
  return iter->status();
}

Status LsmTree::ExportRecords(const Slice& start, const Slice& end,
                              LsmTree* target) {
  const std::shared_ptr<const State> state = Snapshot();
  auto iter = NewInternalIterator(*state);
  iter->Seek(MakeInternalKey(start, kMaxTimestamp, ValueType::kTombstone));
  Timestamp last_ts = 0;
  bool last_tombstone = false;
  std::string last_key;
  for (; iter->Valid(); iter->Next()) {
    ParsedInternalKey parsed;
    if (!ParseInternalKey(iter->key(), &parsed)) {
      return Status::Corruption("export: malformed internal key");
    }
    if (!end.empty() && parsed.user_key.compare(end) >= 0) break;
    const bool tomb = parsed.type == ValueType::kTombstone;
    // Collapse idempotent duplicates across sources.
    if (parsed.user_key == Slice(last_key) && parsed.ts == last_ts &&
        tomb == last_tombstone) {
      continue;
    }
    last_key = parsed.user_key.ToString();
    last_ts = parsed.ts;
    last_tombstone = tomb;
    if (tomb) {
      DIFFINDEX_RETURN_NOT_OK(target->Delete(parsed.user_key, parsed.ts));
    } else {
      DIFFINDEX_RETURN_NOT_OK(
          target->Put(parsed.user_key, iter->value(), parsed.ts));
    }
    if (target->NeedsFlush()) {
      DIFFINDEX_RETURN_NOT_OK(target->Flush());
    }
  }
  return iter->status();
}

Status LsmTree::GetVersions(const Slice& key, std::vector<Version>* out) {
  out->clear();
  const std::shared_ptr<const State> state = Snapshot();
  auto iter = NewInternalIterator(*state);
  iter->Seek(MakeInternalKey(key, kMaxTimestamp, ValueType::kTombstone));
  Timestamp last_ts = 0;
  bool last_tombstone = false;
  bool first = true;
  for (; iter->Valid(); iter->Next()) {
    ParsedInternalKey parsed;
    if (!ParseInternalKey(iter->key(), &parsed)) {
      return Status::Corruption("versions: malformed internal key");
    }
    if (parsed.user_key != key) break;
    const bool tomb = parsed.type == ValueType::kTombstone;
    // Collapse idempotent duplicates across sources.
    if (!first && parsed.ts == last_ts && tomb == last_tombstone) continue;
    first = false;
    last_ts = parsed.ts;
    last_tombstone = tomb;
    out->push_back(Version{parsed.ts, tomb, iter->value().ToString()});
  }
  return iter->status();
}

size_t LsmTree::MemtableBytes() const {
  MutexLock lock(state_mu_);
  return state_->mem->ApproximateMemoryUsage();
}

uint64_t LsmTree::MemtableEntries() const {
  MutexLock lock(state_mu_);
  return state_->mem->NumEntries();
}

int LsmTree::NumDiskStores() const {
  MutexLock lock(state_mu_);
  return static_cast<int>(state_->tables.size());
}

}  // namespace diffindex
