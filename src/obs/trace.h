// Lightweight cross-node request tracing. A TraceContext (trace id, span
// id, parent span, op type, scheme tag) is created at the client API
// boundary, carried in-band through the Fabric's wire framing (encoded
// and decoded like any other message field — the same bytes a real
// network would ship), and re-installed thread-locally on the serving
// side. Every instrumented stage opens a SpanTimer, which records its
// duration into a MetricsRegistry histogram (`span.<name>[.<scheme>]`)
// and, when a TraceCollector is attached, appends a finished-span record
// so one request can be followed client -> region server -> AUQ/APS.
//
// Tracing is zero-cost when off: with no ambient context, contexts encode
// as five varint zeros and SpanTimer degrades to a steady_clock read.

#ifndef DIFFINDEX_OBS_TRACE_H_
#define DIFFINDEX_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/mutex.h"
#include "util/slice.h"
#include "util/thread_annotations.h"

namespace diffindex {

class ThreadPool;

namespace obs {

struct TraceContext {
  uint64_t trace_id = 0;  // 0 = not traced
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;
  std::string op;      // client-level operation ("put", "get_by_index", ...)
  std::string scheme;  // index maintenance scheme tag ("sync-full", ...)

  bool active() const { return trace_id != 0; }

  // Fresh root context with new trace and span ids.
  static TraceContext NewRoot(std::string op, std::string scheme);
  // Child of this context: same trace/op/scheme, new span id, parent set
  // to this span. Used per network hop and per handoff into the AUQ.
  TraceContext Child() const;

  void EncodeTo(std::string* out) const;
  static bool DecodeFrom(Slice* in, TraceContext* ctx);
};

// The calling thread's ambient context (inactive default if none).
const TraceContext& CurrentTraceContext();

// Installs `ctx` as the thread's ambient context for this scope.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(TraceContext ctx);
  ~ScopedTraceContext();

  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext saved_;
};

// Runs task(0) .. task(n-1) through pool->RunAll, each under the calling
// thread's ambient context: work handed to pool threads keeps the
// caller's trace id, scheme label and parent span, exactly as if it ran
// inline.
void RunAllTraced(ThreadPool* pool, size_t n,
                  const std::function<void(size_t)>& task);

// One completed span, as kept by the TraceCollector.
struct SpanRecord {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;
  std::string name;
  std::string scheme;
  uint64_t start_micros = 0;  // wall clock, for cross-span ordering
  uint64_t duration_micros = 0;
};

// Bounded ring of recently finished spans (newest kept, oldest evicted).
class TraceCollector {
 public:
  explicit TraceCollector(size_t capacity = 4096) : capacity_(capacity) {}

  void Record(SpanRecord span) EXCLUDES(mu_);
  // All retained spans of one trace, in start order.
  std::vector<SpanRecord> Trace(uint64_t trace_id) const EXCLUDES(mu_);
  std::vector<SpanRecord> AllSpans() const EXCLUDES(mu_);
  size_t size() const EXCLUDES(mu_);
  void Clear() EXCLUDES(mu_);

  // Human-readable rendering of one trace (indented by parent/child).
  std::string Dump(uint64_t trace_id) const;

 private:
  const size_t capacity_;
  mutable Mutex mu_;
  std::deque<SpanRecord> spans_ GUARDED_BY(mu_);
};

// RAII span: measures from construction to destruction. Records into
// `metrics` histogram `span.<name>` — or `span.<name>.<scheme>` when the
// ambient context carries a scheme tag — and into `collector` when the
// ambient context is active. Either sink may be null.
class SpanTimer {
 public:
  SpanTimer(MetricsRegistry* metrics, TraceCollector* collector,
            std::string name);
  ~SpanTimer();

  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;

  // Duration so far; also what the destructor will record.
  uint64_t ElapsedMicros() const;

 private:
  MetricsRegistry* const metrics_;
  TraceCollector* const collector_;
  const std::string name_;
  const TraceContext ctx_;  // ambient context at construction
  const std::chrono::steady_clock::time_point start_;
  const uint64_t start_wall_micros_;
};

}  // namespace obs
}  // namespace diffindex

#endif  // DIFFINDEX_OBS_TRACE_H_
