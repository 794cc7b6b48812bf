// LsmTree: one log-structured-merge tree (the storage of one region of one
// table). Mirrors the abstract LSM model of Section 2.1:
//
//   * writes insert versioned records into the memtable; an update is a
//     put with a newer timestamp, a delete writes a tombstone;
//   * at capacity the memtable is flushed to an immutable disk store;
//   * reads consult the memtable and all disk stores;
//   * disk stores are periodically compacted into one.
//
// Durability is the owner's job: the RegionServer appends every edit to
// its shared write-ahead log *before* calling Put/Delete here, and uses
// flushed_ts() to decide which WAL entries still need replay after a crash
// (WAL roll-forward).
//
// Threading contract: Put/Delete/Flush must be serialized by the caller
// (HBase sequences writes within a region); compaction may run beside
// them, on the compactor thread (lsm/compactor.h) or in a CompactAll
// call. Get/Scan are safe from any thread at any time and never block
// behind writes, flushes or compactions.
//
// Compaction jobs: a flush that leaves compaction_trigger or more disk
// stores asks the compactor to run the tree's job, a whole-store merge.
// Triggers coalesce: at most one job per tree is queued or running, and a
// trigger that arrives while the job runs makes it re-check the store
// count when it ends. StopCompaction fences the tree for good.

#ifndef DIFFINDEX_LSM_LSM_TREE_H_
#define DIFFINDEX_LSM_LSM_TREE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "lsm/compaction.h"
#include "lsm/memtable.h"
#include "lsm/options.h"
#include "lsm/sstable.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace diffindex {

class LsmTree {
 public:
  // Opens (or creates) the tree persisted in `dir`, recovering the set of
  // live disk stores from the manifest.
  static Status Open(const LsmOptions& options, const std::string& dir,
                     std::unique_ptr<LsmTree>* tree);

  LsmTree(const LsmTree&) = delete;
  LsmTree& operator=(const LsmTree&) = delete;

  // ---- Write path (externally serialized) ----

  Status Put(const Slice& key, const Slice& value, Timestamp ts);
  // Writes a tombstone masking every version with ts' <= ts.
  Status Delete(const Slice& key, Timestamp ts);

  bool NeedsFlush() const;
  // Synchronously flushes the memtable into a new disk store and writes
  // the manifest; if the store count reached the trigger, it then hands
  // the tree's compaction job to the compactor (and returns without
  // waiting for it).
  Status Flush();

  // ---- Compaction (any thread) ----

  // Major compaction: merges every disk store into one. Every store takes
  // part, so tombstones are dropped. With a compactor this runs as the
  // tree's job and returns the job's status once it has ended; without
  // one it runs on the calling thread. Aborted once the tree is fenced.
  Status CompactAll();
  // Blocks until no job of this tree is queued or running. Returns the
  // status of the last job that ended since the previous call (OK if
  // none did), so a failed job is reported once.
  Status WaitForCompaction();
  // Fences the tree: no job starts after this returns, a queued job is
  // dropped, and a running one is abandoned if it has not yet installed
  // its output (the orphan output is collected by the next Open). Once it
  // returns, compaction writes and removes nothing in the tree's
  // directory. Idempotent; the destructor calls it.
  void StopCompaction();

  // ---- Read path (thread-safe) ----

  // Newest version of `key` visible at read_ts. NotFound if absent or
  // masked by a tombstone; Corruption if a disk store's block could not be
  // verified (never an older version in its place). version_ts (optional)
  // receives the version's timestamp.
  Status Get(const Slice& key, Timestamp read_ts, std::string* value,
             Timestamp* version_ts = nullptr);

  // What Get returns for one key of a MultiGet.
  struct GetResult {
    Status status;  // OK, NotFound or Corruption
    std::string value;
    Timestamp ts = 0;
  };
  // Get of every key at one snapshot: (*out)[i] is Get(keys[i]). Each
  // disk store is read through one iterator moved forward by seeks, so
  // ascending keys read a block at most once per batch; any order is
  // correct.
  void MultiGet(const std::vector<Slice>& keys, Timestamp read_ts,
                std::vector<GetResult>* out);

  // Called once per live cell of a row read, in key order: the row's
  // position in the request, the cell's user key (`row '\0' column`, see
  // RowOf), and the newest version visible at the read timestamp.
  using CellVisitor =
      std::function<void(size_t row_index, const Slice& cell_key,
                          const Slice& value, Timestamp ts)>;
  // Reads whole rows at one snapshot: every key that starts with
  // `rows[i] '\0'`, newest visible version, tombstoned cells left out.
  // Like MultiGet it moves one iterator per source forward, and it skips
  // a disk store whose filter or key range excludes the row. Fails with
  // the first unreadable block of a store it reads.
  Status ScanRows(const std::vector<Slice>& rows, Timestamp read_ts,
                  const CellVisitor& visit);

  struct ScanEntry {
    std::string key;
    std::string value;
    Timestamp ts;
  };
  // Newest visible version per key in [start, end); end empty = unbounded.
  // limit == 0 means unlimited.
  Status Scan(const Slice& start, const Slice& end, Timestamp read_ts,
              size_t limit, std::vector<ScanEntry>* out);

  struct Version {
    Timestamp ts;
    bool is_tombstone;
    std::string value;
  };
  // All retained versions of `key`, newest first (diagnostics and tests).
  Status GetVersions(const Slice& key, std::vector<Version>* out);

  // Copies every retained record (all versions AND tombstones) with user
  // key in [start, end) into `target`, preserving timestamps. Used by
  // region splits to materialize the daughter regions.
  // REQUIRES: external write serialization on `target`.
  Status ExportRecords(const Slice& start, const Slice& end,
                       LsmTree* target);

  // ---- Introspection ----

  // Largest timestamp persisted into disk stores; WAL entries at or below
  // it need no replay.
  Timestamp flushed_ts() const {
    return flushed_ts_.load(std::memory_order_acquire);
  }

  // Owner-managed WAL position: the owner records the log sequence of
  // each edit as it applies it; Flush() persists the value captured at the
  // memtable swap, and after a crash applied_seq() (recovered from the
  // manifest) tells the recovery which WAL suffix to replay. Only the
  // flush-time value is ever persisted — edits still in the memtable must
  // stay replayable.
  void set_applied_seq(uint64_t seq) {
    applied_seq_.store(seq, std::memory_order_release);
  }
  uint64_t applied_seq() const {
    return durable_seq_.load(std::memory_order_acquire);
  }
  size_t MemtableBytes() const;
  uint64_t MemtableEntries() const;
  int NumDiskStores() const;
  uint64_t num_gets() const { return num_gets_.load(); }
  uint64_t num_puts() const { return num_puts_.load(); }

  ~LsmTree();

 private:
  friend class Compactor;

  LsmTree(const LsmOptions& options, std::string dir);

  // The sources a read consults. Immutable once published: a flush or
  // compaction publishes a new State, so a reader takes one reference
  // (Snapshot) instead of copying the source list.
  struct State {
    std::shared_ptr<MemTable> mem;
    std::shared_ptr<MemTable> imm;  // memtable being flushed, may be null
    std::vector<std::shared_ptr<SstReader>> tables;  // newest first
  };

  class ReadBatch;

  enum class JobState { kIdle, kQueued, kRunning };

  std::shared_ptr<const State> Snapshot() const;
  // Publishes `next` as the current state. REQUIRES: state_mu_ held.
  void Install(State next) REQUIRES(state_mu_);
  // Persists the state current when it takes manifest_mu_, so concurrent
  // writers (a flush and a job) leave the newer state on disk.
  Status WriteManifest() EXCLUDES(manifest_mu_);
  Status RecoverManifest();
  std::string SstPath(uint64_t file_number) const;

  // Queues the job if none is queued or running (a running one reruns
  // instead). `forced` merges even below the trigger (CompactAll).
  void RequestCompaction(bool forced) EXCLUDES(job_mu_);
  // Hands the job to the compactor. Returns true if the caller must run
  // it itself (DIFFINDEX_CHECK builds).
  bool HandOffLocked() REQUIRES(job_mu_);
  // The compactor thread's entry point: runs the queued job (and, in
  // DIFFINDEX_CHECK builds, its reruns).
  void RunCompactionJob() EXCLUDES(job_mu_);
  // Shutdown dropped the queued job.
  void AbandonQueuedJob() EXCLUDES(job_mu_);
  // The merge itself: every disk store of one snapshot into one table.
  Status MergeAllStores() EXCLUDES(job_mu_);

  // Builds a merging iterator over every source in `state`.
  static std::unique_ptr<RecordIterator> NewInternalIterator(
      const State& state);

  const LsmOptions options_;
  const std::string dir_;

  // Guards the state_ pointer swap. Taken under job_mu_ and manifest_mu_.
  mutable Mutex state_mu_{LockRank::kLsmStateMu, "state_mu_"};
  std::shared_ptr<const State> state_ GUARDED_BY(state_mu_);

  // Serializes manifest writes (a flush and a job may both write).
  Mutex manifest_mu_{LockRank::kLsmManifestMu, "manifest_mu_"};

  // The compaction job of this tree (see the contract at the top).
  Mutex job_mu_{LockRank::kLsmJobMu, "job_mu_"};
  CondVar job_cv_;  // signalled when job_state_ returns to kIdle
  JobState job_state_ GUARDED_BY(job_mu_) = JobState::kIdle;
  bool job_rerun_ GUARDED_BY(job_mu_) = false;   // triggered while running
  bool job_forced_ GUARDED_BY(job_mu_) = false;  // next job merges anyway
  bool compaction_stopped_ GUARDED_BY(job_mu_) = false;
  Status job_status_ GUARDED_BY(job_mu_);  // last ended job, until read

  // Flushes and jobs take file numbers concurrently.
  std::atomic<uint64_t> next_file_number_{1};
  std::atomic<Timestamp> flushed_ts_{0};
  std::atomic<uint64_t> applied_seq_{0};  // volatile, owner-updated per edit
  std::atomic<uint64_t> durable_seq_{0};  // persisted at flush
  std::atomic<uint64_t> num_gets_{0};
  std::atomic<uint64_t> num_puts_{0};

  // Read-path counters, interned at open (null without a registry): keys
  // point-read and rows read, and the SST blocks each kind looked up.
  obs::Counter* point_gets_ = nullptr;
  obs::Counter* get_sst_seeks_ = nullptr;
  obs::Counter* row_reads_ = nullptr;
  obs::Counter* row_sst_seeks_ = nullptr;
};

}  // namespace diffindex

#endif  // DIFFINDEX_LSM_LSM_TREE_H_
