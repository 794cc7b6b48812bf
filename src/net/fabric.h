// In-process network fabric connecting the master, the region servers and
// clients. Every call serializes its body, pays the injected network
// latency in both directions, and can be failed deliberately (node down,
// pairwise partition) — the substitution for the paper's physical
// 10-machine / 42-VM clusters.

#ifndef DIFFINDEX_NET_FABRIC_H_
#define DIFFINDEX_NET_FABRIC_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>

#include "net/message.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/latency_model.h"
#include "util/mutex.h"
#include "util/random.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace diffindex {

using NodeId = uint32_t;

constexpr NodeId kMasterNode = 0;
// Client node ids start here; servers are 1..N.
constexpr NodeId kClientNodeBase = 1000000;

class Fabric {
 public:
  // Handler runs on the caller's thread (thread-per-request server model);
  // it must be thread-safe. Returns the application Status; `*response`
  // carries the encoded response body.
  using Handler =
      std::function<Status(MsgType type, Slice body, std::string* response)>;

  explicit Fabric(const LatencyModel* latency) : latency_(latency) {}

  void RegisterNode(NodeId node, Handler handler);
  void UnregisterNode(NodeId node);

  // A down node fails all calls to it with Unavailable.
  void SetNodeDown(NodeId node, bool down);
  bool IsNodeDown(NodeId node) const;

  // Blocks traffic between a and b (both directions).
  void SetPartitioned(NodeId a, NodeId b, bool partitioned);

  // Message-level faults, softer than down/partition: a request can be
  // dropped (caller sees Unavailable after paying the request hop, like a
  // timeout), delivered twice (the duplicate's response is discarded —
  // exercises handler idempotency), or delayed. Decisions come from one
  // seeded PRNG so schedules replay deterministically. Per-edge faults are
  // symmetric (normalized pair) and override the default; the default
  // applies to every edge without an override.
  struct EdgeFault {
    double drop_probability = 0.0;
    double duplicate_probability = 0.0;
    uint32_t extra_latency_us = 0;

    bool active() const {
      return drop_probability > 0.0 || duplicate_probability > 0.0 ||
             extra_latency_us > 0;
    }
  };
  void SetEdgeFault(NodeId a, NodeId b, EdgeFault fault);
  void SetDefaultFault(EdgeFault fault);
  void ClearFaults();
  void SetFaultSeed(uint64_t seed);

  // Synchronous RPC. Pays one network hop for the request and one for the
  // response. Returns Unavailable if the target is down, unregistered, or
  // partitioned from `from`. The caller's ambient TraceContext (if any) is
  // carried in-band: a child context is encoded into the wire frame ahead
  // of the body, decoded on the serving side, and installed thread-locally
  // for the handler's duration — so spans opened inside the handler chain
  // to the caller's trace exactly as they would across a real network.
  Status Call(NodeId from, NodeId to, MsgType type, const std::string& body,
              std::string* response);

  // Attaches observability sinks (either may be null): per-RPC durations
  // land in `metrics` histogram `span.rpc.<type>` and counter
  // `rpc.<type>.calls`; traced calls also record spans into `traces`.
  // Call before the first Call(): the per-type counters are interned
  // here, so an RPC counts itself with one relaxed add.
  void SetObservers(obs::MetricsRegistry* metrics,
                    obs::TraceCollector* traces);

  uint64_t calls_made() const {
    return calls_made_.load(std::memory_order_relaxed);
  }

 private:
  const LatencyModel* latency_;
  obs::MetricsRegistry* metrics_ = nullptr;
  // `rpc.<type>.calls`, indexed by MsgType value (null: no registry, or
  // a retired value).
  std::array<obs::Counter*, static_cast<size_t>(MsgType::kIndexScan) + 1>
      call_counters_{};
  obs::TraceCollector* traces_ = nullptr;
  // mu_ guards the routing/fault tables; Call() copies the handler out
  // under mu_ and invokes it unlocked, so a handler may re-enter the
  // fabric (server-to-server RPC) without deadlocking.
  mutable Mutex mu_;
  std::unordered_map<NodeId, Handler> handlers_ GUARDED_BY(mu_);
  std::set<NodeId> down_ GUARDED_BY(mu_);
  std::set<std::pair<NodeId, NodeId>> partitions_
      GUARDED_BY(mu_);  // normalized (min,max)
  std::map<std::pair<NodeId, NodeId>, EdgeFault> edge_faults_
      GUARDED_BY(mu_);  // normalized
  EdgeFault default_fault_ GUARDED_BY(mu_);
  Random fault_rng_ GUARDED_BY(mu_){0};
  std::atomic<uint64_t> calls_made_{0};
};

}  // namespace diffindex

#endif  // DIFFINDEX_NET_FABRIC_H_
