#include "lsm/compactor.h"

#include <algorithm>

#include "lsm/lsm_tree.h"

namespace diffindex {

Compactor::Compactor(obs::MetricsRegistry* metrics) {
  if (metrics != nullptr) pending_ = metrics->GetGauge("lsm.compaction.pending");
#ifndef DIFFINDEX_CHECK
  thread_ = std::thread([this] { Loop(); });
#endif
}

Compactor::~Compactor() { Shutdown(); }

Compactor::Handoff Compactor::Enqueue(LsmTree* tree) {
  {
    MutexLock lock(mu_);
    if (shutdown_) return Handoff::kRefused;
#ifndef DIFFINDEX_CHECK
    queue_.push_back(tree);
#endif
  }
  if (pending_ != nullptr) pending_->Add(1);
#ifdef DIFFINDEX_CHECK
  return Handoff::kRunHere;
#else
  work_cv_.Signal();
  return Handoff::kQueued;
#endif
}

void Compactor::JobEnded() {
  if (pending_ != nullptr) pending_->Sub(1);
}

bool Compactor::Cancel(LsmTree* tree) {
  {
    MutexLock lock(mu_);
    auto it = std::find(queue_.begin(), queue_.end(), tree);
    if (it == queue_.end()) return false;
    queue_.erase(it);
  }
  if (pending_ != nullptr) pending_->Sub(1);
  return true;
}

void Compactor::Shutdown() {
  std::deque<LsmTree*> dropped;
  {
    MutexLock lock(mu_);
    shutdown_ = true;
    dropped.swap(queue_);
  }
  work_cv_.SignalAll();
  // Outside mu_: a tree's job lock is taken before the queue's
  // (util/lock_order.h). A dropped tree is still alive here: fencing or
  // destroying it waits for the job state this call resets.
  for (LsmTree* tree : dropped) {
    tree->AbandonQueuedJob();
    if (pending_ != nullptr) pending_->Sub(1);
  }
  if (thread_.joinable()) thread_.join();
}

void Compactor::Loop() {
  for (;;) {
    LsmTree* tree;
    {
      MutexLock lock(mu_);
      work_cv_.Wait(mu_, [this]() REQUIRES(mu_) {
        return shutdown_ || !queue_.empty();
      });
      if (queue_.empty()) return;  // shut down
      tree = queue_.front();
      queue_.pop_front();
    }
    // The tree stays alive until its job has ended: fencing it waits for
    // exactly that. The job may queue the tree again (a rerun).
    tree->RunCompactionJob();
  }
}

}  // namespace diffindex
