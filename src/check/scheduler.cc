// Raw std primitives throughout: the instrumented util/mutex.h wrappers
// call back into this scheduler (the analyzer's raw-mutex rule excludes
// this file).

#include "check/scheduler.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace diffindex {
namespace check {
namespace {

std::atomic<Scheduler*> g_active{nullptr};

// Which scheduler (if any) the calling thread is registered with, and
// its dense id there. Stale values from a previous run are harmless: the
// guard in ControlledHere compares against the active scheduler.
thread_local Scheduler* tls_scheduler = nullptr;
thread_local int tls_id = -1;

}  // namespace

Scheduler::Scheduler(Options options) : options_(options) {}

Scheduler::~Scheduler() {
  if (g_active.load(std::memory_order_acquire) == this) Deactivate();
}

void Scheduler::Activate() {
  Scheduler* expected = nullptr;
  if (!g_active.compare_exchange_strong(expected, this,
                                        std::memory_order_acq_rel)) {
    std::fprintf(stderr, "check::Scheduler: another scheduler is active\n");
    std::abort();
  }
}

void Scheduler::Deactivate() {
  Scheduler* expected = this;
  g_active.compare_exchange_strong(expected, nullptr,
                                   std::memory_order_acq_rel);
}

Scheduler* Scheduler::Active() {
  return g_active.load(std::memory_order_acquire);
}

bool Scheduler::ControlledHere() {
  return CurrentIfControlled() != nullptr;
}

Scheduler* Scheduler::CurrentIfControlled() {
  Scheduler* s = tls_scheduler;
  if (s == nullptr || tls_id < 0) return nullptr;
  if (s != g_active.load(std::memory_order_acquire)) return nullptr;
  if (!s->controlled_.load(std::memory_order_acquire)) return nullptr;
  return s;
}

int Scheduler::RegisterCurrentThread(const char* name, bool daemon) {
  std::unique_lock<std::mutex> lk(mu_);
  const int id = static_cast<int>(threads_.size());
  ThreadState state;
  state.name = name;
  state.daemon = daemon;
  state.run = ThreadState::Run::kRunnable;
  threads_.push_back(std::move(state));
  tls_scheduler = this;
  tls_id = id;
  cv_.notify_all();  // wake AwaitRegistered
  if (!controlled_.load(std::memory_order_relaxed)) return id;
  if (current_ == -1) {
    // First thread in (the run's main thread): claim the token.
    current_ = id;
    threads_[id].run = ThreadState::Run::kRunning;
    return id;
  }
  ParkLocked(lk, id);
  return id;
}

void Scheduler::UnregisterCurrentThread() {
  std::unique_lock<std::mutex> lk(mu_);
  const int id = tls_id;
  tls_scheduler = nullptr;
  tls_id = -1;
  if (id < 0 || id >= static_cast<int>(threads_.size())) return;
  threads_[id].run = ThreadState::Run::kExited;
  if (!controlled_.load(std::memory_order_relaxed)) return;
  if (current_ == id) {
    current_ = -1;
    ScheduleNextLocked();
  }
}

int Scheduler::RegisteredCount() {
  std::lock_guard<std::mutex> lk(mu_);
  return static_cast<int>(threads_.size());
}

void Scheduler::AwaitRegistered(int count) {
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [&] {
    return static_cast<int>(threads_.size()) >= count ||
           !controlled_.load(std::memory_order_relaxed);
  });
}

int Scheduler::ResourceIdLocked(const void* addr) {
  if (addr == nullptr) return 0;
  const int next = static_cast<int>(resource_ids_.size()) + 1;
  return resource_ids_.emplace(addr, next).first->second;
}

void Scheduler::Yield(const char* tag, const void* resource, bool is_lock) {
  std::unique_lock<std::mutex> lk(mu_);
  if (!controlled_.load(std::memory_order_relaxed)) return;
  const int id = tls_id;
  ThreadState& self = threads_[id];
  self.pending_tag = tag;
  self.pending_resource = ResourceIdLocked(resource);
  self.pending_is_lock = is_lock;

  std::vector<DecisionRecord::Option> options;
  for (int t = 0; t < static_cast<int>(threads_.size()); ++t) {
    const ThreadState& st = threads_[t];
    if (t == id || st.run == ThreadState::Run::kRunnable) {
      options.push_back(DecisionRecord::Option{
          t, st.pending_tag, st.pending_resource, st.pending_is_lock});
    }
  }
  if (options.size() <= 1) return;
  const int chosen = ChooseLocked(options, id);
  if (!controlled_.load(std::memory_order_relaxed) || chosen == id) return;
  self.run = ThreadState::Run::kRunnable;
  current_ = chosen;
  threads_[chosen].run = ThreadState::Run::kRunning;
  cv_.notify_all();
  ParkLocked(lk, id);
}

bool Scheduler::BlockOnMutex(const void* addr) {
  std::unique_lock<std::mutex> lk(mu_);
  if (!controlled_.load(std::memory_order_relaxed)) return false;
  const int id = tls_id;
  ThreadState& self = threads_[id];
  self.run = ThreadState::Run::kBlockedMutex;
  self.wait_addr = addr;
  self.pending_tag = "mutex.lock";
  self.pending_resource = ResourceIdLocked(addr);
  self.pending_is_lock = true;
  current_ = -1;
  ScheduleNextLocked();
  ParkLocked(lk, id);
  if (!controlled_.load(std::memory_order_relaxed)) return false;
  self.wait_addr = nullptr;
  return true;
}

void Scheduler::OnMutexRelease(const void* addr) {
  std::lock_guard<std::mutex> lk(mu_);
  if (!controlled_.load(std::memory_order_relaxed)) return;
  for (ThreadState& st : threads_) {
    if (st.run == ThreadState::Run::kBlockedMutex && st.wait_addr == addr) {
      st.run = ThreadState::Run::kRunnable;
      st.wait_addr = nullptr;
    }
  }
}

bool Scheduler::BlockOnCv(const void* cv_addr, bool timed) {
  std::unique_lock<std::mutex> lk(mu_);
  if (!controlled_.load(std::memory_order_relaxed)) return false;
  const int id = tls_id;
  ThreadState& self = threads_[id];
  self.run = ThreadState::Run::kBlockedCv;
  self.wait_addr = cv_addr;
  self.timed = timed;
  self.pending_tag = "cv.wake";
  self.pending_resource = ResourceIdLocked(cv_addr);
  self.pending_is_lock = false;
  current_ = -1;
  ScheduleNextLocked();
  ParkLocked(lk, id);
  self.timed = false;
  if (!controlled_.load(std::memory_order_relaxed)) return false;
  self.wait_addr = nullptr;
  return true;
}

void Scheduler::OnCvNotify(const void* cv_addr) {
  std::lock_guard<std::mutex> lk(mu_);
  if (!controlled_.load(std::memory_order_relaxed)) return;
  for (ThreadState& st : threads_) {
    if (st.run == ThreadState::Run::kBlockedCv && st.wait_addr == cv_addr) {
      st.run = ThreadState::Run::kRunnable;
      st.wait_addr = nullptr;
    }
  }
}

void Scheduler::NotePoint(const char* tag, long long value) {
  std::lock_guard<std::mutex> lk(mu_);
  if (!controlled_.load(std::memory_order_relaxed)) return;
  points_.push_back(PointEvent{tag, value, tls_id});
}

void Scheduler::SetReplay(std::vector<int> choices) {
  std::lock_guard<std::mutex> lk(mu_);
  replay_ = std::move(choices);
}

void Scheduler::SetExplorationWindow(bool on) {
  std::lock_guard<std::mutex> lk(mu_);
  window_ = on;
}

void Scheduler::FinishMainAndWait() {
  std::unique_lock<std::mutex> lk(mu_);
  const int id = tls_id;
  tls_scheduler = nullptr;
  tls_id = -1;
  if (id >= 0 && id < static_cast<int>(threads_.size())) {
    threads_[id].run = ThreadState::Run::kExited;
    if (current_ == id) {
      current_ = -1;
      if (controlled_.load(std::memory_order_relaxed)) ScheduleNextLocked();
    }
  }
  cv_.wait(lk, [&] { return !controlled_.load(std::memory_order_relaxed); });
}

std::vector<int> Scheduler::choices() const {
  std::vector<int> out;
  out.reserve(decisions_.size());
  for (const DecisionRecord& d : decisions_) out.push_back(d.chosen);
  return out;
}

int Scheduler::ChooseLocked(
    const std::vector<DecisionRecord::Option>& options, int running) {
  auto enabled = [&](int t) {
    for (const auto& o : options) {
      if (o.thread == t) return true;
    }
    return false;
  };
  const int fallback =
      (running >= 0 && enabled(running)) ? running : options.front().thread;
  if (!window_) return fallback;

  int chosen = fallback;
  if (decision_index_ < replay_.size()) {
    const int forced = replay_[decision_index_];
    if (enabled(forced)) {
      chosen = forced;
    } else {
      diverged_ = true;
    }
  }
  ++decision_index_;
  DecisionRecord record;
  record.options = options;
  record.chosen = chosen;
  record.running = running;
  decisions_.push_back(std::move(record));
  if (static_cast<int>(decisions_.size()) > options_.max_decisions &&
      violation_.empty()) {
    violation_ = "livelock: decision limit (" +
                 std::to_string(options_.max_decisions) + ") exceeded";
    CompleteLocked();
  }
  return chosen;
}

void Scheduler::ScheduleNextLocked() {
  std::vector<DecisionRecord::Option> runnable;
  bool live_non_daemon = false;
  for (int t = 0; t < static_cast<int>(threads_.size()); ++t) {
    const ThreadState& st = threads_[t];
    if (st.run == ThreadState::Run::kRunnable) {
      runnable.push_back(DecisionRecord::Option{
          t, st.pending_tag, st.pending_resource, st.pending_is_lock});
    }
    if (!st.daemon && st.run != ThreadState::Run::kExited) {
      live_non_daemon = true;
    }
  }

  if (runnable.empty()) {
    if (!live_non_daemon) {
      // All non-daemon threads exited, daemons all blocked: the
      // quiescent terminal state. The run is complete.
      CompleteLocked();
      return;
    }
    // Fire the lowest-id timed waiter ("its timeout elapsed") — nothing
    // else can make progress, so the timeout is the only enabled event.
    for (int t = 0; t < static_cast<int>(threads_.size()); ++t) {
      ThreadState& st = threads_[t];
      if (st.run == ThreadState::Run::kBlockedCv && st.timed) {
        st.run = ThreadState::Run::kRunning;
        st.wait_addr = nullptr;
        current_ = t;
        cv_.notify_all();
        return;
      }
    }
    // Live non-daemon threads, nothing runnable, no timeouts: deadlock.
    if (violation_.empty()) {
      std::string report = "deadlock: no runnable thread;";
      for (int t = 0; t < static_cast<int>(threads_.size()); ++t) {
        const ThreadState& st = threads_[t];
        if (st.run == ThreadState::Run::kExited) continue;
        report += " t" + std::to_string(t) + "(" + st.name + ")=" +
                  (st.run == ThreadState::Run::kBlockedMutex ? "mutex"
                                                             : "cv");
      }
      violation_ = report;
    }
    CompleteLocked();
    return;
  }

  int next = runnable.front().thread;
  if (runnable.size() > 1) {
    next = ChooseLocked(runnable, /*running=*/-1);
    if (!controlled_.load(std::memory_order_relaxed)) return;
  }
  current_ = next;
  threads_[next].run = ThreadState::Run::kRunning;
  cv_.notify_all();
}

void Scheduler::CompleteLocked() {
  controlled_.store(false, std::memory_order_release);
  current_ = -1;
  cv_.notify_all();
}

void Scheduler::ParkLocked(std::unique_lock<std::mutex>& lk, int id) {
  cv_.wait(lk, [&] {
    return current_ == id || !controlled_.load(std::memory_order_relaxed);
  });
  if (controlled_.load(std::memory_order_relaxed)) {
    threads_[id].run = ThreadState::Run::kRunning;
  }
}

}  // namespace check
}  // namespace diffindex
