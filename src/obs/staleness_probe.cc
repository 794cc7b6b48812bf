#include "obs/staleness_probe.h"

#include <chrono>

#include "obs/trace.h"
#include "util/timestamp_oracle.h"

namespace diffindex {
namespace obs {

namespace {
using Clock = std::chrono::steady_clock;

uint64_t MicrosSince(Clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            start)
          .count());
}
}  // namespace

StalenessProbe::StalenessProbe(DiffIndexClient* client,
                               MetricsRegistry* metrics,
                               StalenessProbeOptions options)
    : client_(client), metrics_(metrics), options_(std::move(options)) {}

StalenessProbe::~StalenessProbe() { Stop(); }

const std::string& StalenessProbe::SchemeTag() {
  MutexLock lock(scheme_mu_);
  if (scheme_tag_.empty()) {
    IndexDescriptor index;
    if (client_->FindIndex(options_.table, options_.index_name, &index)
            .ok()) {
      scheme_tag_ = IndexSchemeName(index.scheme);
    }
  }
  return scheme_tag_;
}

Status StalenessProbe::ProbeOnce(uint64_t* staleness_micros) {
  const uint64_t seq = seq_.fetch_add(1, std::memory_order_relaxed);
  // Unique per cycle AND per process run (probe tables survive restarts).
  const std::string sentinel = "probe-" +
                               std::to_string(TimestampOracle::NowMicros()) +
                               "-" + std::to_string(seq);

  const std::string& scheme = SchemeTag();
  ScopedTraceContext trace(TraceContext::NewRoot("staleness_probe", scheme));

  const auto start = Clock::now();
  Status s = client_->Put(options_.table, options_.row_key,
                          {Cell{options_.column, sentinel, false}});
  if (!s.ok()) {
    metrics_->GetCounter("probe.errors")->Add();
    return s;
  }

  const uint64_t timeout_micros =
      static_cast<uint64_t>(options_.timeout_ms) * 1000;
  for (;;) {
    std::vector<IndexHit> hits;
    s = client_->GetByIndex(options_.table, options_.index_name, sentinel,
                            &hits);
    if (!s.ok()) {
      metrics_->GetCounter("probe.errors")->Add();
      return s;
    }
    bool visible = false;
    for (const IndexHit& hit : hits) {
      if (hit.base_row == options_.row_key) {
        visible = true;
        break;
      }
    }
    if (visible) break;
    if (MicrosSince(start) > timeout_micros) {
      metrics_->GetCounter("probe.timeouts")->Add();
      return Status::Aborted("staleness probe timed out waiting for index");
    }
    if (stop_.load(std::memory_order_relaxed) && thread_.joinable()) {
      // Background prober was asked to stop mid-cycle; abandon quietly.
      return Status::Aborted("staleness probe stopped");
    }
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options_.poll_interval_ms));
  }

  const uint64_t staleness = MicrosSince(start);
  metrics_->GetHistogram("probe.staleness_micros")->Add(staleness);
  if (!scheme.empty()) {
    metrics_->GetHistogram("probe.staleness_micros." + scheme)
        ->Add(staleness);
  }
  metrics_->GetGauge("probe.last_staleness_micros")
      ->Set(static_cast<int64_t>(staleness));
  metrics_->GetCounter("probe.cycles")->Add();
  cycles_.fetch_add(1, std::memory_order_relaxed);
  if (staleness_micros != nullptr) *staleness_micros = staleness;
  return Status::OK();
}

Status StalenessProbe::Start() {
  if (options_.period_ms <= 0) return Status::OK();
  if (thread_.joinable()) {
    return Status::InvalidArgument("staleness probe already started");
  }
  stop_.store(false);
  thread_ = std::thread([this] { Loop(); });
  return Status::OK();
}

void StalenessProbe::Stop() {
  {
    MutexLock lock(stop_mu_);
    stop_.store(true);
  }
  stop_cv_.SignalAll();
  if (thread_.joinable()) thread_.join();
}

void StalenessProbe::Loop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    // Sample failures are expected mid-chaos (routing errors, timeouts);
    // they are already counted under probe.errors/probe.timeouts.
    ProbeOnce(nullptr).IgnoreError();
    MutexLock lock(stop_mu_);
    stop_cv_.WaitFor(stop_mu_, std::chrono::milliseconds(options_.period_ms),
                     [this] { return stop_.load(); });
  }
}

}  // namespace obs
}  // namespace diffindex
