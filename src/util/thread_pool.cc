#include "util/thread_pool.h"

namespace diffindex {

ThreadPool::ThreadPool(int num_threads, std::string name)
    : name_(std::move(name)) {
  workers_.reserve(num_threads);
  for (int i = 0; i < num_threads; i++) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

bool ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(mu_);
    if (shutdown_) return false;
    queue_.push_back(std::move(task));
  }
  work_cv_.Signal();
  return true;
}

namespace {

// Completion latch for one RunAll call: Wait() returns once every
// submitted task has called CountDown().
class Latch {
 public:
  explicit Latch(size_t n) : remaining_(n) {}

  void CountDown() {
    MutexLock lock(mu_);
    if (--remaining_ == 0) cv_.SignalAll();
  }

  void Wait() {
    MutexLock lock(mu_);
    cv_.Wait(mu_, [this]() REQUIRES(mu_) { return remaining_ == 0; });
  }

 private:
  Mutex mu_;
  CondVar cv_;
  size_t remaining_ GUARDED_BY(mu_);
};

}  // namespace

void ThreadPool::RunAll(std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return;
  Latch latch(tasks.size() - 1);
  for (size_t i = 0; i + 1 < tasks.size(); i++) {
    std::function<void()>& task = tasks[i];
    auto counted = [&task, &latch]() {
      task();
      latch.CountDown();
    };
    if (!Submit(counted)) counted();  // shutting down: run inline
  }
  tasks.back()();
  latch.Wait();
}

void ThreadPool::Wait() {
  MutexLock lock(mu_);
  idle_cv_.Wait(mu_, [this]() REQUIRES(mu_) {
    return queue_.empty() && active_ == 0;
  });
}

void ThreadPool::Shutdown() {
  {
    MutexLock lock(mu_);
    if (shutdown_) return;
    shutdown_ = true;
  }
  work_cv_.SignalAll();
  for (auto& t : workers_) {
    if (t.joinable()) t.join();
  }
}

size_t ThreadPool::pending() const {
  MutexLock lock(mu_);
  return queue_.size();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      work_cv_.Wait(mu_,
                    [this]() REQUIRES(mu_) { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (shutdown_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      active_++;
    }
    task();
    {
      MutexLock lock(mu_);
      active_--;
      if (queue_.empty() && active_ == 0) idle_cv_.SignalAll();
    }
  }
}

}  // namespace diffindex
