// Compactor: the background thread that runs LSM compaction jobs. A
// region server owns one and hands it to every tree it opens through
// LsmOptions::compactor, so the server's merges run one at a time, off
// the put path and outside the region's flush gate (§2.1 of the paper:
// disk stores are compacted "periodically" in the background).
//
// The queue holds trees, not closures: a tree has at most one entry
// (LsmTree coalesces its triggers) and can take its entry back when it is
// fenced (Cancel), so a closed or crashed region never runs a job after
// its fence returns.
//
// In DIFFINDEX_CHECK builds there is no thread: the model checker's
// scheduler controls registered threads only, so Enqueue tells the
// caller to run the job itself, at the point that triggered it.

#ifndef DIFFINDEX_LSM_COMPACTOR_H_
#define DIFFINDEX_LSM_COMPACTOR_H_

#include <deque>
#include <thread>

#include "obs/metrics.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace diffindex {

class LsmTree;

class Compactor {
 public:
  // `metrics` (may be null) receives the `lsm.compaction.pending` gauge:
  // jobs queued or running.
  explicit Compactor(obs::MetricsRegistry* metrics);
  ~Compactor();

  Compactor(const Compactor&) = delete;
  Compactor& operator=(const Compactor&) = delete;

  enum class Handoff {
    kQueued,   // the thread will call the tree's RunCompactionJob
    kRunHere,  // no thread (DIFFINDEX_CHECK): the caller runs the job
    kRefused,  // shut down: no job runs
  };
  // Called by the tree with its job lock held; the tree is not queued.
  Handoff Enqueue(LsmTree* tree) EXCLUDES(mu_);
  // Called by the tree, before it wakes its waiters, when a job that
  // Enqueue accepted has ended (run, or skipped at a fence).
  void JobEnded();
  // Takes the tree's queued entry back. False if it is not queued: the
  // thread already took it, or Shutdown dropped it.
  bool Cancel(LsmTree* tree) EXCLUDES(mu_);

  // Refuses further jobs, abandons the queued ones and joins the thread
  // once its running job has ended. Idempotent.
  void Shutdown() EXCLUDES(mu_);

 private:
  void Loop() EXCLUDES(mu_);

  Mutex mu_{LockRank::kCompactorMu, "mu_"};
  CondVar work_cv_;
  std::deque<LsmTree*> queue_ GUARDED_BY(mu_);
  bool shutdown_ GUARDED_BY(mu_) = false;
  obs::Gauge* pending_ = nullptr;
  std::thread thread_;
};

}  // namespace diffindex

#endif  // DIFFINDEX_LSM_COMPACTOR_H_
