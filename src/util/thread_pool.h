// Fixed-size thread pool used for background LSM work (flush, compaction),
// for the asynchronous processing service (APS) that drains the AUQ, and
// for the read engine's fan-out (RunAll).

#ifndef DIFFINDEX_UTIL_THREAD_POOL_H_
#define DIFFINDEX_UTIL_THREAD_POOL_H_

#include <deque>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace diffindex {

class ThreadPool {
 public:
  explicit ThreadPool(int num_threads, std::string name = "pool");
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues a task. Returns false if the pool is shutting down.
  bool Submit(std::function<void()> task) EXCLUDES(mu_);

  // Runs every task and returns once all of them have finished: all but
  // the last are submitted to the pool and the calling thread runs the
  // last itself (and any task the pool refuses while shutting down).
  // Tasks must not wait on other pool work. Cheaper than Wait(), which
  // drains the whole shared queue.
  void RunAll(std::vector<std::function<void()>> tasks) EXCLUDES(mu_);

  // Blocks until the queue is empty and all workers are idle.
  void Wait() EXCLUDES(mu_);

  // Stops accepting tasks, drains the queue, joins workers. Idempotent.
  void Shutdown() EXCLUDES(mu_);

  size_t pending() const EXCLUDES(mu_);

 private:
  void WorkerLoop();

  const std::string name_;
  mutable Mutex mu_;
  CondVar work_cv_;
  CondVar idle_cv_;
  std::deque<std::function<void()>> queue_ GUARDED_BY(mu_);
  std::vector<std::thread> workers_;
  int active_ GUARDED_BY(mu_) = 0;
  bool shutdown_ GUARDED_BY(mu_) = false;
};

}  // namespace diffindex

#endif  // DIFFINDEX_UTIL_THREAD_POOL_H_
