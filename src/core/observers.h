// The Diff-Index coprocessors (Section 7): SyncFullObserver,
// SyncInsertObserver and AsyncObserver, dispatched per index by the
// IndexManager that each region server installs as its maintenance hooks.
//
//   sync-full   (Algorithm 1): SU2 put new index entry @ ts;
//               SU3 read old base value @ ts-δ; SU4 delete old entry @ ts-δ.
//   sync-insert: SU2 only; stale entries are repaired at read time
//               (query/read_repair.h).
//   async-*    (Algorithm 3): enqueue to the AUQ; the APS performs
//               BA2 read old @ ts-δ, BA3 delete old @ ts-δ,
//               BA4 put new @ ts (Algorithm 4).
//
// Failed synchronous operations are pushed into the AUQ for retry, so the
// base put still succeeds and the index converges eventually (Section 6.2).
//
// Invariant enforced everywhere: an index entry carries the SAME timestamp
// as the base entry that produced it — the whole concurrency-control and
// recovery story depends on it (Section 4.3).

#ifndef DIFFINDEX_CORE_OBSERVERS_H_
#define DIFFINDEX_CORE_OBSERVERS_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/client.h"
#include "cluster/region_server.h"
#include "core/auq.h"
#include "core/op_stats.h"

namespace diffindex {

class IndexManager final : public IndexMaintenanceHooks {
 public:
  // `server` hosts the base regions (local reads); `internal_client`
  // routes index puts/deletes to the index regions (remote calls). `stats`
  // may be null.
  IndexManager(RegionServer* server, std::shared_ptr<Client> internal_client,
               OpStats* stats, const AuqOptions& auq_options);
  ~IndexManager() override;

  // ---- IndexMaintenanceHooks ----
  Status PostApply(const PutRequest& put, Timestamp ts) override;
  void PreFlush(const std::string& table) override;
  void PostFlush(const std::string& table) override;
  void OnWalReplay(const PutRequest& put, Timestamp ts) override;
  void OnRegionOpened(const std::string& table, uint64_t region_id) override;
  uint64_t QueueDepth() const override;

  AsyncUpdateQueue* auq() { return auq_.get(); }

  // Graceful: drains the AUQ backlog before stopping.
  void Shutdown();
  // Crash semantics: drops the AUQ backlog (see AsyncUpdateQueue::Abandon).
  void Abandon();

 private:
  // Applies one task synchronously for the sync schemes, inside the base
  // put: put-new, then read-old and delete-old. `insert_only` limits it
  // to SU2 (sync-insert). Counts in the foreground stats bucket.
  Status ProcessTask(const IndexTask& task, bool insert_only);

  // Resolves the index's component values at `read_ts` (values present in
  // `task.cells` win — they are the just-written ones at task.ts). On OK,
  // `*out` is nullopt iff some component is definitively absent (=> no
  // index entry). A failed base read (node down, injected I/O error, ...)
  // returns its error instead of masquerading as "absent": the caller must
  // retry, or a missed old-entry delete would leave a phantom forever.
  Status ResolveIndexValue(const IndexTask& task, Timestamp read_ts,
                           bool use_task_cells, bool foreground,
                           std::optional<std::string>* out);

  // True if the put touches any component of the index.
  static bool Touches(const IndexDescriptor& index,
                      const std::vector<Cell>& cells);

  // The sync schemes' PI and DI: one kPut RPC each.
  Status PutIndexEntry(const std::string& index_table,
                       const std::string& index_row, Timestamp ts);
  Status DeleteIndexEntry(const std::string& index_table,
                          const std::string& index_row, Timestamp ts);

  // The APS backend, run once per AUQ drain unit (BA2-BA4): resolves
  // every task's new/old values, stages the PI/DI operations, and ships
  // them grouped by owning server in one multi-put RPC per server
  // (Client::MultiPutBatch). One status per task; a transport failure
  // fails every task that staged work — the retried delivery is
  // idempotent under the same-timestamp rule.
  void ProcessTaskBatch(const std::vector<IndexTask>& tasks,
                        std::vector<Status>* statuses);
  // Staged (deferred) forms of PutIndexEntry/DeleteIndexEntry: append the
  // index mutation to `ops` instead of shipping it immediately. Same
  // failpoints as the direct forms; counted in the async stats bucket.
  Status StagePutIndexEntry(const std::string& index_table,
                            const std::string& index_row, Timestamp ts,
                            std::vector<PutRequest>* ops);
  Status StageDeleteIndexEntry(const std::string& index_table,
                               const std::string& index_row, Timestamp ts,
                               std::vector<PutRequest>* ops);

  // Local-index (Section 3.1) maintenance: all operations stay on this
  // server — the old-value read is local and the entry writes go to the
  // region's co-located side tree. Always synchronous.
  Status ProcessLocalTask(const IndexTask& task);

  RegionServer* const server_;
  std::shared_ptr<Client> internal_client_;
  OpStats* const stats_;
  std::unique_ptr<AsyncUpdateQueue> auq_;
};

}  // namespace diffindex

#endif  // DIFFINDEX_CORE_OBSERVERS_H_
