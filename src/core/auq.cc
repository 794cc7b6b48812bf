#include "core/auq.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <tuple>

#include "check/yield.h"
#include "fault/failpoint.h"
#include "util/logging.h"

#ifdef DIFFINDEX_CHECK
#include "check/test_hooks.h"
#endif

namespace diffindex {

AsyncUpdateQueue::AsyncUpdateQueue(const AuqOptions& options,
                                   Processor processor)
    : options_(options), processor_(std::move(processor)) {
  if (options_.metrics != nullptr) {
    depth_gauge_ = options_.metrics->GetGauge("auq.depth");
    dead_letter_gauge_ = options_.metrics->GetGauge("auq.dead_letters");
    dead_letters_lost_counter_ =
        options_.metrics->GetCounter("recovery.dead_letters_lost");
    enqueued_counter_ = options_.metrics->GetCounter("auq.enqueued");
    processed_counter_ = options_.metrics->GetCounter("auq.processed");
    retries_counter_ = options_.metrics->GetCounter("auq.retries");
    coalesced_counter_ = options_.metrics->GetCounter("auq.coalesced");
    shed_counter_ = options_.metrics->GetCounter("auq.shed");
    degraded_counter_ = options_.metrics->GetCounter("auq.degraded");
    task_micros_hist_ = options_.metrics->GetHistogram("auq.task_micros");
    staleness_hist_ = options_.metrics->GetHistogram("auq.staleness_micros");
    batch_size_hist_ = options_.metrics->GetHistogram("auq.batch_size");
  }
  workers_.reserve(options_.worker_threads);
  // Model-checker handshake: wait until every spawned worker has
  // registered with the active scheduler, so thread ids (and therefore
  // schedule strings) are assigned deterministically.
  const int check_registered = CHECK_SPAWN_SNAPSHOT();
  for (int i = 0; i < options_.worker_threads; i++) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  CHECK_AWAIT_REGISTERED(check_registered + options_.worker_threads);
}

AsyncUpdateQueue::~AsyncUpdateQueue() { Shutdown(); }

bool AsyncUpdateQueue::Enqueue(IndexTask task) {
  // Decision point before the task becomes visible to workers: the
  // explorer branches on enqueue-vs-drain orderings here.
  CHECK_YIELD_RES("auq.enqueue", &mu_);
  MutexLock lock(mu_);
  const bool blocking =
      options_.overflow_policy == AuqOverflowPolicy::kBlock;
  intake_cv_.Wait(mu_, [this, blocking]() REQUIRES(mu_) {
    if (shutdown_) return true;
    if (paused_ > 0) return false;
    // Non-blocking overflow policies still honor the flush barrier
    // (Pause) but never wait for capacity — overflow is resolved below.
    if (!blocking) return true;
    return options_.max_depth == 0 || queue_.size() < options_.max_depth;
  });
  if (shutdown_) return false;
  // "auq.enqueue" models task loss between ack and queue insertion: the
  // caller is told the task is in (true), but it never lands. Only the
  // chaos harness arms this, to prove its oracle catches lost entries.
  if (fault::FailpointRegistry::Global()->Fires("auq.enqueue")) return true;
  if (options_.max_depth > 0 && queue_.size() >= options_.max_depth) {
    if (options_.overflow_policy == AuqOverflowPolicy::kShedToDeadLetter) {
      // "auq.shed" models a crash between the put's ack and the
      // dead-letter record landing: the caller still sees true (the base
      // write is acked) but no repairable record survives. Only the
      // chaos harness arms this; recovery's WAL replay must re-create
      // the index work.
      if (fault::FailpointRegistry::Global()->Fires("auq.shed")) {
        if (shed_counter_ != nullptr) shed_counter_->Add();
        return true;
      }
      DIFFINDEX_LOG_WARN << "auq: shedding task for index '"
                         << task.index.name << "' base table '"
                         << task.base_table << "' row '" << task.row
                         << "' ts " << task.ts << ": queue full ("
                         << queue_.size() << " >= " << options_.max_depth
                         << ")";
      dead_letters_.push_back(std::move(task));
      if (shed_counter_ != nullptr) shed_counter_->Add();
      if (dead_letter_gauge_ != nullptr) dead_letter_gauge_->Add(1);
      return true;
    }
    // kDegradeToAsync: accept beyond the bound; only the accounting
    // differs from a normal enqueue.
    if (degraded_counter_ != nullptr) degraded_counter_->Add();
  }
  queue_.push_back(std::move(task));
  work_cv_.Signal();
  if (enqueued_counter_ != nullptr) enqueued_counter_->Add();
  if (depth_gauge_ != nullptr) depth_gauge_->Add(1);
  return true;
}

void AsyncUpdateQueue::Pause() {
  CHECK_YIELD_RES("auq.pause", &mu_);
  MutexLock lock(mu_);
  paused_++;
}

void AsyncUpdateQueue::Resume() {
  CHECK_YIELD_RES("auq.resume", &mu_);
  {
    MutexLock lock(mu_);
    if (paused_ > 0) paused_--;
  }
  intake_cv_.SignalAll();
}

void AsyncUpdateQueue::WaitDrained() {
  MutexLock lock(mu_);
  drained_cv_.Wait(mu_, [this]() REQUIRES(mu_) {
    return shutdown_ || (queue_.empty() && in_flight_ == 0);
  });
}

void AsyncUpdateQueue::Shutdown() { ShutdownInternal(/*abandon=*/false); }

void AsyncUpdateQueue::Abandon() { ShutdownInternal(/*abandon=*/true); }

void AsyncUpdateQueue::ShutdownInternal(bool abandon) {
  CHECK_YIELD_RES("auq.shutdown", &mu_);
  {
    MutexLock lock(mu_);
    if (shutdown_) return;
    shutdown_ = true;
    abandoned_ = abandon;
    if (abandon && !queue_.empty()) {
      if (depth_gauge_ != nullptr) {
        depth_gauge_->Sub(static_cast<int64_t>(QueuedTaskCountLocked()));
      }
      queue_.clear();
    }
    if (abandon && !dead_letters_.empty()) {
      // The dead-letter list was this server's last in-memory record of
      // index updates that exhausted their retries; a crash takes it with
      // the process. Make the loss observable (the recovery counter) and
      // attributable (one line per task, full key context), mirroring the
      // escape-time log in case that one rotated away.
      for (const IndexTask& task : dead_letters_) {
        DIFFINDEX_LOG_WARN << "auq: dead-letter lost at crash: index '"
                           << task.index.name << "' base table '"
                           << task.base_table << "' row '" << task.row
                           << "' ts " << task.ts << " (" << task.attempts
                           << " attempts)";
      }
      if (dead_letters_lost_counter_ != nullptr) {
        dead_letters_lost_counter_->Add(
            static_cast<uint64_t>(dead_letters_.size()));
      }
      if (dead_letter_gauge_ != nullptr) {
        dead_letter_gauge_->Sub(static_cast<int64_t>(dead_letters_.size()));
      }
      dead_letters_.clear();
    }
  }
  intake_cv_.SignalAll();
  work_cv_.SignalAll();
  drained_cv_.SignalAll();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  // On abandon, a worker may have re-queued a failing in-flight task after
  // the clear above; those ghosts die here too.
  MutexLock lock(mu_);
  if (abandoned_ && !queue_.empty()) {
    if (depth_gauge_ != nullptr) {
      depth_gauge_->Sub(static_cast<int64_t>(QueuedTaskCountLocked()));
    }
    queue_.clear();
  }
}

size_t AsyncUpdateQueue::QueuedTaskCountLocked() const {
  size_t n = 0;
  for (const IndexTask& task : queue_) {
    n += 1 + static_cast<size_t>(task.absorbed);
  }
  return n;
}

std::vector<IndexTask> AsyncUpdateQueue::DrainDeadLetters() {
  CHECK_YIELD_RES("auq.dead_letter.drain", &mu_);
  MutexLock lock(mu_);
  std::vector<IndexTask> out = std::move(dead_letters_);
  dead_letters_.clear();
  if (dead_letter_gauge_ != nullptr && !out.empty()) {
    dead_letter_gauge_->Sub(static_cast<int64_t>(out.size()));
  }
  return out;
}

size_t AsyncUpdateQueue::dead_letters() const {
  MutexLock lock(mu_);
  return dead_letters_.size();
}

size_t AsyncUpdateQueue::queued_depth() const {
  MutexLock lock(mu_);
  return QueuedTaskCountLocked();
}

size_t AsyncUpdateQueue::depth() const {
  MutexLock lock(mu_);
  return QueuedTaskCountLocked() + static_cast<size_t>(in_flight_);
}

uint64_t AsyncUpdateQueue::processed() const {
  return processed_.load(std::memory_order_relaxed);
}

uint64_t AsyncUpdateQueue::retries() const {
  return retries_.load(std::memory_order_relaxed);
}

void AsyncUpdateQueue::WorkerLoop() {
  // Under the model checker, workers are daemon threads: they park on
  // the empty queue at quiescence and do not block run completion.
  CHECK_REGISTER_DAEMON("auq.worker");
  // Each pass pops one drain unit of up to drain_batch_size tasks and
  // hands it to ProcessBatch. Draining proceeds regardless of Pause() —
  // pause blocks intake only — and every popped task counts as in-flight
  // (including ones it coalesced away earlier), so WaitDrained observes
  // whole drain units (§5.3).
  const size_t unit_cap =
      static_cast<size_t>(std::max(options_.drain_batch_size, 1));
  for (;;) {
    std::vector<IndexTask> batch;
    {
      MutexLock lock(mu_);
      work_cv_.Wait(mu_, [this]() REQUIRES(mu_) {
        return shutdown_ || !queue_.empty();
      });
      if (queue_.empty()) {
        if (shutdown_) return;
        continue;
      }
      const size_t n = std::min(queue_.size(), unit_cap);
      batch.reserve(n);
      for (size_t i = 0; i < n; i++) {
        in_flight_ += 1 + queue_.front().absorbed;
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    if (batch_size_hist_ != nullptr) batch_size_hist_->Add(batch.size());
    // The unit is popped but not yet applied: enqueues landing here miss
    // this drain unit (they coalesce into the next).
    CHECK_YIELD_RES("auq.drain.pop", &mu_);
    ProcessBatch(std::move(batch));
  }
}

void AsyncUpdateQueue::ProcessBatch(std::vector<IndexTask> batch) {
  // Coalesce per (index, base table, row): the task with the newest base
  // timestamp survives and writes the only PI. Every absorbed task's
  // RB/DI anchor is kept in covered_old_ts — the survivor retracts at
  // each of them, because an absorbed task's entry may already be in the
  // index (crash replay, duplicate delivery) and skipping its delete
  // would leave a phantom entry (see DESIGN.md "Batched maintenance").
  std::vector<IndexTask> survivors;
  survivors.reserve(batch.size());
  {
    std::map<std::tuple<std::string, std::string, std::string>, size_t>
        by_key;
    int64_t absorbed_now = 0;
    for (IndexTask& task : batch) {
      if (task.old_ts == 0) task.old_ts = task.ts;
      auto key =
          std::make_tuple(task.index.name, task.base_table, task.row);
      auto it = by_key.find(key);
      if (it == by_key.end()) {
        by_key.emplace(std::move(key), survivors.size());
        survivors.push_back(std::move(task));
        continue;
      }
      IndexTask& kept = survivors[it->second];
      const int merged_attempts = std::max(kept.attempts, task.attempts);
      std::vector<Timestamp> covered = std::move(kept.covered_old_ts);
      covered.insert(covered.end(), task.covered_old_ts.begin(),
                     task.covered_old_ts.end());
      if (task.ts > kept.ts) {
        covered.push_back(kept.old_ts);
        task.absorbed += kept.absorbed + 1;
        kept = std::move(task);
      } else {
        covered.push_back(task.old_ts);
        kept.absorbed += task.absorbed + 1;
      }
      kept.covered_old_ts = std::move(covered);
      kept.attempts = merged_attempts;
      absorbed_now++;
    }
    if (coalesced_counter_ != nullptr && absorbed_now > 0) {
      coalesced_counter_->Add(absorbed_now);
    }
  }

#ifdef DIFFINDEX_CHECK
  // Mutation hook (tests/check/mutation_regression_test.cc): the PR-4
  // min-anchor coalescing bug. Collapsing a survivor's retraction
  // anchors to the single minimum point drops the anchors that read the
  // superseded values, leaving their index entries unretracted.
  if (check::test_hooks::buggy_min_anchor_coalescing.load(
          std::memory_order_relaxed)) {
    for (IndexTask& task : survivors) {
      if (task.covered_old_ts.empty()) continue;
      Timestamp anchor = task.old_ts;
      for (const Timestamp t : task.covered_old_ts) {
        anchor = std::min(anchor, t);
      }
      task.old_ts = anchor;
      task.covered_old_ts.clear();
    }
  }
#endif
  // Survivors are fixed; the batched apply (resolve + stage + one
  // shipped RPC) races base writes from here on.
  CHECK_YIELD_RES("auq.coalesce", &mu_);

  if (options_.process_delay_ms > 0) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options_.process_delay_ms));
  }

  std::vector<Status> statuses(survivors.size(), Status::OK());
  // "auq.process" fails (or, under a Crash policy, crashes) the whole
  // drain unit before the processor runs; every member is retried.
  Status unit_status =
      fault::FailpointRegistry::Global()->MaybeFail("auq.process");
  if (unit_status.ok()) {
    // Chain the drain unit's span to its first traced member (a unit
    // mixes many client requests; one parent is picked).
    const IndexTask* traced = nullptr;
    for (const IndexTask& task : survivors) {
      if (task.trace.active()) {
        traced = &task;
        break;
      }
    }
    obs::ScopedTraceContext scope(traced != nullptr ? traced->trace.Child()
                                                    : obs::TraceContext());
    obs::SpanTimer span(options_.metrics, options_.traces, "aps.task");
    const uint64_t start = TimestampOracle::NowMicros();
    processor_(survivors, &statuses);
    bool any_ok = false;
    for (const Status& s : statuses) {
      if (s.ok()) any_ok = true;
    }
    if (any_ok && task_micros_hist_ != nullptr) {
      const uint64_t end = TimestampOracle::NowMicros();
      task_micros_hist_->Add(end > start ? end - start : 0);
    }
  } else {
    for (Status& s : statuses) s = unit_status;
  }

  // Terminal accounting. A survivor stands for 1 + absorbed accepted
  // tasks; every counter/gauge moves by that amount so drain barriers and
  // `processed == accepted` assertions stay exact under coalescing.
  std::vector<IndexTask> requeue;
  for (size_t i = 0; i < survivors.size(); i++) {
    IndexTask& task = survivors[i];
    const int count = 1 + task.absorbed;
    if (statuses[i].ok()) {
      processed_.fetch_add(static_cast<uint64_t>(count),
                           std::memory_order_relaxed);
      if (processed_counter_ != nullptr) processed_counter_->Add(count);
      if (depth_gauge_ != nullptr) depth_gauge_->Sub(count);
      const uint64_t sampled =
          task_counter_.fetch_add(1, std::memory_order_relaxed);
      if (options_.staleness_sample_every > 0 &&
          sampled %
                  static_cast<uint64_t>(options_.staleness_sample_every) ==
              0) {
        const Timestamp now = TimestampOracle::NowMicros();
        if (now > task.ts) {
          staleness_.Add(now - task.ts);
          if (staleness_hist_ != nullptr) staleness_hist_->Add(now - task.ts);
        }
      }
      MutexLock lock(mu_);
      in_flight_ -= count;
      if (queue_.empty() && in_flight_ == 0) drained_cv_.SignalAll();
      intake_cv_.Signal();
      continue;
    }

    retries_.fetch_add(1, std::memory_order_relaxed);
    if (retries_counter_ != nullptr) retries_counter_->Add();
    task.attempts++;
    if (options_.max_attempts > 0 && task.attempts >= options_.max_attempts) {
      // Full key context at escape time: the dead-letter list is
      // in-memory only, so if this server later crashes this line is the
      // only durable record an operator (or a Cleanse run) can repair
      // from.
      DIFFINDEX_LOG_WARN << "auq: dead-lettering task for index '"
                         << task.index.name << "' base table '"
                         << task.base_table << "' row '" << task.row
                         << "' ts " << task.ts << " after " << task.attempts
                         << " attempts: " << statuses[i].ToString();
      MutexLock lock(mu_);
      // "auq.dead_letter" models a crash between the escape decision and
      // the in-memory record landing: the task is already off the queue,
      // its base write stays acked, and only the warning line above
      // survives. Only the chaos harness arms it; a Cleanse sweep or
      // WAL-replay recovery must re-create the index work. The queue
      // bookkeeping must still run or the in-flight count wedges
      // WaitDrained.
      if (fault::FailpointRegistry::Global()->Fires("auq.dead_letter")) {
        if (depth_gauge_ != nullptr) depth_gauge_->Sub(count);
        in_flight_ -= count;
        if (queue_.empty() && in_flight_ == 0) drained_cv_.SignalAll();
        intake_cv_.Signal();
        continue;
      }
      dead_letters_.push_back(std::move(task));
      if (dead_letter_gauge_ != nullptr) dead_letter_gauge_->Add(1);
      if (depth_gauge_ != nullptr) depth_gauge_->Sub(count);
      in_flight_ -= count;
      if (queue_.empty() && in_flight_ == 0) drained_cv_.SignalAll();
      intake_cv_.Signal();
      continue;
    }
    requeue.push_back(std::move(task));
  }
  if (requeue.empty()) return;

  // One backoff per failed drain unit (the failures share a cause: the
  // index region is down or the batched RPC bounced). The tasks stay
  // in-flight through the sleep so WaitDrained stays honest.
  int worst_attempts = 0;
  for (const IndexTask& task : requeue) {
    worst_attempts = std::max(worst_attempts, task.attempts);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(
      std::min(worst_attempts, 8) * options_.retry_backoff_ms));
  MutexLock lock(mu_);
  for (IndexTask& task : requeue) {
    const int count = 1 + task.absorbed;
    if (abandoned_) {
      // Abandoned (crash) while in flight: the task dies undelivered,
      // like the rest of the backlog.
      if (depth_gauge_ != nullptr) depth_gauge_->Sub(count);
      in_flight_ -= count;
      continue;
    }
    // Internal requeue ignores pause: the tasks are already part of the
    // pending set a drain must wait for. The survivor keeps its absorbed
    // count — the retried batched delivery covers the coalesced tasks too.
    queue_.push_back(std::move(task));
    in_flight_ -= count;
    work_cv_.Signal();
  }
  if (queue_.empty() && in_flight_ == 0) drained_cv_.SignalAll();
}

}  // namespace diffindex
