// RegionServer: hosts regions, serves puts/gets/scans for their keys,
// assigns timestamps, writes the shared per-server write-ahead log, and
// runs the coprocessor-style index maintenance hooks at the three points
// Diff-Index needs (Section 7):
//
//   * post-apply   — after WAL append + memtable apply of a base put,
//                    still under the region's shared flush gate
//                    (SyncFullObserver / SyncInsertObserver / AsyncObserver);
//   * pre/post-flush — around a memtable flush, with the flush gate held
//                    exclusively (the "pause & drain" of Figure 5);
//   * WAL replay   — during region recovery, re-enqueuing every replayed
//                    base put into the AUQ (Section 5.3).
//
// WAL entries carry a per-server sequence number; each region persists the
// highest sequence covered by its last flush (WAL roll-forward), so replay
// after a crash applies exactly the suffix the disk stores are missing and
// log files whose edits are all flushed are garbage-collected.

#ifndef DIFFINDEX_CLUSTER_REGION_SERVER_H_
#define DIFFINDEX_CLUSTER_REGION_SERVER_H_

#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cluster/base_row_cache.h"
#include "cluster/catalog.h"
#include "cluster/region.h"
#include "lsm/compactor.h"
#include "lsm/wal.h"
#include "net/fabric.h"
#include "net/message.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/timestamp_oracle.h"

namespace diffindex {

// One logged edit: every cell mutation of one put, applied atomically to
// one region.
struct WalEdit {
  std::string table;
  uint64_t region_id = 0;
  uint64_t seq = 0;  // per-server, monotonically increasing
  std::string row;
  std::vector<Cell> cells;
  Timestamp ts = 0;

  void EncodeTo(std::string* out) const;
  static bool DecodeFrom(Slice* in, WalEdit* edit);
};

// Implemented by core::IndexManager (the Diff-Index coprocessors).
class IndexMaintenanceHooks {
 public:
  virtual ~IndexMaintenanceHooks() = default;

  // Runs the scheme-specific index maintenance for a just-applied base
  // put. Called with the region's flush gate held shared. The returned
  // status is what the client observes for the overall put.
  virtual Status PostApply(const PutRequest& put, Timestamp ts) = 0;

  // Called with the flush gate held exclusively, before the memtable
  // swap: pause AUQ intake and wait until the APS drains it.
  virtual void PreFlush(const std::string& table) = 0;
  // Called after the flush completes: resume AUQ intake.
  virtual void PostFlush(const std::string& table) = 0;

  // A base put replayed from the WAL during recovery: re-enqueue its index
  // work (idempotent; Section 5.3 requirement (2)).
  virtual void OnWalReplay(const PutRequest& put, Timestamp ts) = 0;

  // A region finished opening (including any WAL replay): rebuild its
  // region-co-located local indexes from the base data.
  virtual void OnRegionOpened(const std::string& table,
                              uint64_t region_id) = 0;

  // Monitoring: current AUQ depth (exported via heartbeats).
  virtual uint64_t QueueDepth() const = 0;
};

struct RegionServerOptions {
  LsmOptions lsm;  // template; block_cache is created per server if null
  size_t block_cache_bytes = 64 << 20;
  wal::SyncMode wal_sync = wal::SyncMode::kNone;
  // Roll the active WAL segment once it reaches this size. Checked on the
  // append path (the segment is synced before it is retired, so group-
  // commit acks never depend on a file the roll already closed) and again
  // after each flush. Smaller segments tighten the GC granularity at the
  // cost of more files. Exports `wal.segments`.
  uint64_t wal_segment_bytes = 8 << 20;
  // Background WAL GC sweep interval: deletes closed segments whose edits
  // are all covered by region flush checkpoints (never the active tail).
  // 0 disables the thread; GC still runs opportunistically after every
  // flush. Exports `wal.gc_deleted`.
  int wal_gc_interval_ms = 0;
  // When false, recovery ignores flush checkpoints and replays the dead
  // server's full WAL history for the region (the pre-checkpoint
  // behavior; bench_recovery's baseline). Replay is idempotent, so this
  // only costs time.
  bool recovery_use_checkpoints = true;
  // Group-commit window (wal_sync == kGroupCommit): the sync leader waits
  // this long before issuing the shared fsync, letting more concurrent
  // appends join the batch. 0 = sync immediately (batching still happens
  // naturally while a sync is in flight). Exports `wal.group_size`.
  int wal_group_window_micros = 0;
  // Write-through base-row cache capacity (see cluster/base_row_cache.h):
  // serves the RB reads of sync-full maintenance and read repair from
  // memory. 0 disables. Exports `base_cache.hit` / `base_cache.miss`.
  size_t base_row_cache_bytes = 4 << 20;
  // Heartbeat interval; 0 disables the background heartbeat thread (tests
  // drive failure detection explicitly).
  int heartbeat_interval_ms = 0;
  // Admission control (0 disables): once the region's running flush has
  // held (or queued on) the exclusive gate for more than this long, new
  // puts are delayed instead of piling onto the gate. Exports
  // `admission.delayed` / `admission.delayed_micros` / `admission.rejected`.
  uint64_t admission_stall_micros = 0;
  // Bounded delay budget per admitted put: a put waits (in 1ms slices) up
  // to this long for the stall to clear, then bounces with
  // kResourceExhausted — the client retries with backoff.
  uint64_t admission_max_delay_micros = 20000;
  // Compaction pacing: when >= 0 and the region's disk-store count reaches
  // lsm.compaction_trigger + this slack, the L0 debt counts as stall
  // pressure on the same admission path (delay, then reject), slowing
  // writers down until the background compactor catches up. -1 disables
  // the L0 leg.
  int admission_l0_slack = -1;
  // Observability sinks (either may be null): server-side spans
  // (`span.rs.put.<scheme>`), put/flush counters, and the drain-before-
  // flush / flush-stall timing histograms.
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceCollector* traces = nullptr;
};

class RegionServer {
 public:
  RegionServer(NodeId id, std::string data_root, Fabric* fabric,
               const RegionServerOptions& options);
  ~RegionServer();

  RegionServer(const RegionServer&) = delete;
  RegionServer& operator=(const RegionServer&) = delete;

  // Registers the fabric endpoint and opens the WAL.
  Status Start();
  // Graceful stop: final flush (and the compactions it triggers), close
  // WAL, unregister. A crash is simulated by destroying the server without
  // calling this.
  Status Stop();
  // Crash simulation: halts background threads without flushing anything;
  // memtable contents survive only through the WAL. A compaction job in
  // flight is abandoned before it installs its output (or, past that
  // point, finishes first): once Crash returns, this server writes and
  // removes no file of its regions.
  void Crash();

  NodeId id() const { return id_; }
  const std::string& wal_dir() const { return wal_dir_; }

  void UpdateCatalog(CatalogSnapshot snapshot);
  // The current catalog, shared and immutable: a put's observer reads it
  // without copying descriptors. Never null.
  std::shared_ptr<const CatalogSnapshot> catalog() const;

  // Must be set before Start() (the fabric handler and the heartbeat
  // thread read it unlocked); may be null (no indexes).
  void SetHooks(IndexMaintenanceHooks* hooks) { hooks_ = hooks; }

  // ---- Region lifecycle (control plane, called by the master) ----

  Status OpenRegion(const RegionInfoWire& info);
  // Opens the region and replays `wal_paths` (the dead server's logs,
  // "split" down to this region by filtering). The master flushes the
  // region afterwards (recovery phase 2) so the recovered state becomes
  // durable under this server's own WAL regime.
  Status OpenRegionWithRecovery(const RegionInfoWire& info,
                                const std::vector<std::string>& wal_paths);
  Status CloseRegion(const std::string& table, uint64_t region_id);
  std::vector<RegionInfoWire> HostedRegions() const;

  // Online region split: materializes two daughter regions covering
  // [start, split) and [split, end), swaps them in atomically, and
  // retires the parent. Writes to the parent block for the duration (the
  // flush gate); reads keep being served from the parent until the swap.
  // `left` and `right` carry the daughters' new region ids (assigned by
  // the master); their ranges must partition the parent's at `split_key`.
  Status SplitRegion(const std::string& table, uint64_t region_id,
                     const std::string& split_key,
                     const RegionInfoWire& left, const RegionInfoWire& right);

  // Region move, source side: fences the region against further writes,
  // flushes it durably (draining the AUQ first), and unhosts it. The
  // region's data directory on shared storage is then complete; the new
  // owner opens it with a plain OpenRegion.
  Status CloseRegionForMove(const std::string& table, uint64_t region_id);

  // ---- Data plane ----

  // Fabric handler (dispatches on MsgType).
  Status Handle(MsgType type, Slice body, std::string* response);

  // Local cell read, used by the index maintenance hooks: the coprocessor
  // runs on the server that holds the base region, so RB(k, ts) is a local
  // LSM read (disk cost applies, no network hop) — unless the base-row
  // cache answers it.
  Status LocalGetCell(const std::string& table, const Slice& row,
                      const Slice& column, Timestamp read_ts,
                      std::string* value, Timestamp* version_ts);

  BaseRowCache* base_row_cache() { return base_row_cache_.get(); }

  // ---- Local (region-co-located) indexes, Section 3.1 ----

  // Applies one local index mutation to the region hosting base_row. No
  // WAL: the local index is rebuilt from base data on region open.
  Status ApplyLocalIndex(const std::string& table, const Slice& base_row,
                         const std::string& index_name,
                         const std::string& index_row, Timestamp ts,
                         bool is_delete);

  // Scans one region's local index (the per-region leg of a broadcast
  // query).
  Status ScanLocalIndex(const std::string& table, uint64_t region_id,
                        const std::string& index_name,
                        const std::string& start_key,
                        const std::string& end_key, Timestamp read_ts,
                        uint32_t limit, std::vector<RawEntry>* entries);

  // Full row scan of one hosted region (local index rebuild).
  Status ScanRegionRows(const std::string& table, uint64_t region_id,
                        std::vector<ScannedRow>* rows);

  // Forces a flush of every region (graceful shutdown, tests). These admin
  // calls return once the compaction jobs they triggered have ended, so
  // the caller sees a settled tree; the put path's flushes do not wait.
  Status FlushAll();
  Status FlushRegion(const std::string& table, uint64_t region_id);
  // Major compaction of the region's base tree, on the compactor thread;
  // returns when it has ended.
  Status CompactRegion(const std::string& table, uint64_t region_id);

  TimestampOracle* oracle() { return &oracle_; }
  Fabric* fabric() { return fabric_; }
  obs::MetricsRegistry* metrics() const { return options_.metrics; }
  obs::TraceCollector* traces() const { return options_.traces; }

  // Stats for the experiment harness.
  uint64_t wal_appends() const { return wal_appends_.load(); }
  uint64_t flush_count() const { return flush_count_.load(); }
  // Total microseconds puts spent stalled behind flushes (drain + swap),
  // for the flush-stall measurement of Section 5.3.
  uint64_t flush_stall_micros() const { return flush_stall_micros_.load(); }

 private:
  struct WalFile {
    uint64_t file_seq = 0;
    std::string path;
    std::unique_ptr<wal::Writer> writer;  // null once closed
    // Highest edit seq per region recorded in this file.
    std::map<std::pair<std::string, uint64_t>, uint64_t> region_max_seq;
  };

  Status HandlePut(Slice body, std::string* response);
  // Admission control (see RegionServerOptions::admission_stall_micros):
  // returns OK when the put may proceed to the flush gate, possibly after
  // a bounded delay; kResourceExhausted when the region is stalled past
  // the delay budget. Called before any lock is taken.
  Status AdmitPut(const std::shared_ptr<Region>& region);
  // True when `region` is currently under admission pressure: its running
  // flush is older than admission_stall_micros, or its disk-store debt
  // crossed the compaction-pacing slack.
  bool AdmissionStalled(const std::shared_ptr<Region>& region) const;
  Status HandleMultiPut(Slice body, std::string* response);
  // The shared put pipeline: validate, route, gate, timestamp, WAL,
  // memtable, coprocessors, flush check.
  Status ExecutePut(const PutRequest& put, PutResponse* resp);
  Status HandleGetCell(Slice body, std::string* response);
  Status HandleGetRow(Slice body, std::string* response);
  Status HandleScanRows(Slice body, std::string* response);
  Status HandleRegionAdmin(MsgType type, Slice body);
  Status HandleLocalIndexScan(Slice body, std::string* response);
  Status HandleMultiGet(Slice body, std::string* response);
  Status HandleIndexScan(Slice body, std::string* response);

  // Region owning `row` in `table`, or null.
  std::shared_ptr<Region> FindRegion(const std::string& table,
                                     const Slice& row) const;
  std::shared_ptr<Region> FindRegionById(const std::string& table,
                                         uint64_t region_id) const;

  Status RollWalLocked() REQUIRES(wal_mu_);
  void MaybeGcWalFilesLocked() REQUIRES(wal_mu_);
  // Syncs the tail and rolls it when it crossed wal_segment_bytes. A sync
  // failure skips the roll (the tail must be durable before it stops
  // being the sync target, or a group-commit ack could cover an edit that
  // never reached disk).
  void MaybeRollWalLocked() REQUIRES(wal_mu_);
  Status FlushRegionInternal(const std::shared_ptr<Region>& region);
  // FlushRegionInternal, then waits for the compactions it triggered.
  Status FlushRegionAndWait(const std::shared_ptr<Region>& region);
  // Fences every hosted region's compactions and stops the compactor.
  void StopCompactor();
  Status OpenRegionInternal(const RegionInfoWire& info);
  // Future edit sequences must sort after everything a previous owner
  // persisted for an adopted region.
  void AdoptAppliedSeq(uint64_t adopted);
  // Replays this region's edits (seq > recovered_through) from the dead
  // owners' WAL files into the still-unpublished region; replayed puts
  // are appended to *replayed for post-publish AUQ re-enqueue.
  Status ReplayWalForRegion(Region* region, const RegionInfoWire& info,
                            const std::vector<std::string>& wal_paths,
                            uint64_t recovered_through,
                            std::vector<std::pair<PutRequest, Timestamp>>*
                                replayed);
  void WalGcLoop();

  // WAL group commit (wal_sync == kGroupCommit): returns once a sync has
  // covered append ticket `ticket`. Concurrent callers elect one leader
  // that fsyncs for the whole in-flight window; the rest wait on
  // wal_sync_cv_. Called after LogAndApply's append, while the region's
  // write_mu is still held (lock order write_mu -> wal_sync_mu_ ->
  // wal_mu_).
  Status GroupCommitSync(uint64_t ticket) EXCLUDES(wal_sync_mu_);

  // Cell read answered by the base-row cache when it can certify the
  // visible version, else by the region's LSM tree (a cached tombstone
  // yields NotFound without touching the tree). A tree read that hits an
  // unverifiable block returns Corruption, never NotFound: read repair
  // would take NotFound for a stale entry and delete a live one.
  Status CachedGet(const std::shared_ptr<Region>& region,
                   const std::string& table, const Slice& row,
                   const Slice& column, Timestamp read_ts, std::string* value,
                   Timestamp* version_ts);
  // The base-row cache's answer, as CachedGet returns it; nullopt when
  // the cache cannot certify the visible version (or there is none).
  std::optional<Status> BaseCacheGet(const std::string& table,
                                     const Slice& row, const Slice& column,
                                     Timestamp read_ts, std::string* value,
                                     Timestamp* version_ts);

  // Applies one put to a region: assigns the put's timestamp (when
  // `requested_ts` is 0), reads the pre-put old values into *resp when
  // the request asks for them, assigns seq, appends to the WAL and
  // applies cells to the memtable — all inside the region's write_mu
  // critical section. Caller holds the region's flush gate (shared).
  //
  // Timestamp assignment MUST happen under write_mu: it makes ts order
  // equal apply order for same-region puts, which the sync index
  // observers depend on — a retraction read at ts-δ sees every earlier
  // version only if any same-row put with a smaller ts has already
  // applied. Drawing the ts before this section reintroduces a phantom
  // found by the model checker (tests/check/mutation_regression_test.cc
  // keeps the pre-fix assignment armed behind a hook and proves the
  // bounded exploration still catches it).
  Status LogAndApply(const std::shared_ptr<Region>& region,
                     const PutRequest& put, Timestamp requested_ts,
                     Timestamp* assigned_ts, PutResponse* resp);

  void HeartbeatLoop();

  const NodeId id_;
  const std::string data_root_;
  const std::string wal_dir_;
  Fabric* const fabric_;
  RegionServerOptions options_;
  LsmOptions lsm_options_;  // with per-server cache installed

  TimestampOracle oracle_;
  IndexMaintenanceHooks* hooks_ = nullptr;

  // The server's one compaction thread, shared by every tree through
  // lsm_options_.compactor. Declared before regions_ so it outlives them.
  std::unique_ptr<Compactor> compactor_;

  // Lock order when more than one is held: region flush gate -> region
  // write_mu -> wal_sync_mu_ -> wal_mu_ -> regions_mu_ (WAL GC reads
  // flushed_seq_ under wal_mu_; the group-commit leader releases
  // wal_sync_mu_ before taking wal_mu_ for the shared sync, so it never
  // holds both). catalog_mu_ and the caches' internal mutexes are leaves.
  // FindRegion's regions_mu_ hold is
  // self-contained: it copies the shared_ptr out and releases before the
  // caller touches any region lock.
  //
  // The LockRank constructor arguments are the one declaration of this
  // order: they arm the runtime validator (util/lock_order.h) in
  // debug/TSan/DIFFINDEX_CHECK builds, and the analyzer's
  // lock-order-global rule checks every call chain against them.
  mutable SharedMutex regions_mu_{LockRank::kRegionsMu, "regions_mu_"};
  // key: (table, region_id)
  std::map<std::pair<std::string, uint64_t>, std::shared_ptr<Region>> regions_
      GUARDED_BY(regions_mu_);
  // Seq covered by each region's last flush (mirrors the persisted value).
  std::map<std::pair<std::string, uint64_t>, uint64_t> flushed_seq_
      GUARDED_BY(regions_mu_);

  // Leaf: never held while acquiring another ranked lock.
  mutable Mutex catalog_mu_{LockRank::kLeaf, "catalog_mu_"};
  std::shared_ptr<const CatalogSnapshot> catalog_ GUARDED_BY(catalog_mu_) =
      std::make_shared<const CatalogSnapshot>();

  Mutex wal_mu_{LockRank::kWalMu, "wal_mu_"};
  std::vector<WalFile> wal_files_
      GUARDED_BY(wal_mu_);  // open tail is wal_files_.back()
  uint64_t next_wal_file_seq_ GUARDED_BY(wal_mu_) = 1;
  std::atomic<uint64_t> next_edit_seq_{1};

  // Group-commit state (kGroupCommit only). Tickets are append ordinals
  // (the wal_appends_ count after the append), so "synced through ticket
  // T" means the first T appends are durable. Acquired between a region's
  // write_mu and wal_mu_ — see the lock-order comment above.
  Mutex wal_sync_mu_{LockRank::kWalSyncMu, "wal_sync_mu_"};
  CondVar wal_sync_cv_;
  uint64_t synced_ticket_ GUARDED_BY(wal_sync_mu_) = 0;
  bool wal_sync_in_progress_ GUARDED_BY(wal_sync_mu_) = false;

  // Write-through base-row cache (null when base_row_cache_bytes == 0).
  std::unique_ptr<BaseRowCache> base_row_cache_;

  std::atomic<bool> stopped_{false};
  std::thread heartbeat_thread_;
  std::thread wal_gc_thread_;

  std::atomic<uint64_t> wal_appends_{0};
  std::atomic<uint64_t> flush_count_{0};
  std::atomic<uint64_t> flush_stall_micros_{0};

  // Cached registry instruments (null when options_.metrics is null).
  obs::Counter* rs_put_counter_ = nullptr;
  obs::Counter* admission_delayed_counter_ = nullptr;
  obs::Counter* admission_delayed_micros_counter_ = nullptr;
  obs::Counter* admission_rejected_counter_ = nullptr;
  obs::Counter* rs_flush_counter_ = nullptr;
  Histogram* flush_stall_hist_ = nullptr;
  Histogram* wal_group_size_hist_ = nullptr;
  obs::Gauge* wal_segments_gauge_ = nullptr;
  obs::Counter* wal_gc_deleted_counter_ = nullptr;
  obs::Counter* wal_replay_skipped_counter_ = nullptr;
  obs::Counter* wal_replayed_counter_ = nullptr;
  obs::Counter* checkpoint_writes_counter_ = nullptr;
  obs::Counter* checkpoint_write_failed_counter_ = nullptr;
  obs::Counter* checkpoint_corrupt_counter_ = nullptr;
};

}  // namespace diffindex

#endif  // DIFFINDEX_CLUSTER_REGION_SERVER_H_
