#include "net/fabric.h"

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>

namespace diffindex {

void Fabric::RegisterNode(NodeId node, Handler handler) {
  MutexLock lock(mu_);
  handlers_[node] = std::move(handler);
  down_.erase(node);
}

void Fabric::UnregisterNode(NodeId node) {
  MutexLock lock(mu_);
  handlers_.erase(node);
}

void Fabric::SetNodeDown(NodeId node, bool down) {
  MutexLock lock(mu_);
  if (down) {
    down_.insert(node);
  } else {
    down_.erase(node);
  }
}

bool Fabric::IsNodeDown(NodeId node) const {
  MutexLock lock(mu_);
  return down_.count(node) > 0;
}

void Fabric::SetPartitioned(NodeId a, NodeId b, bool partitioned) {
  if (a > b) std::swap(a, b);
  MutexLock lock(mu_);
  if (partitioned) {
    partitions_.insert({a, b});
  } else {
    partitions_.erase({a, b});
  }
}

void Fabric::SetEdgeFault(NodeId a, NodeId b, EdgeFault fault) {
  if (a > b) std::swap(a, b);
  MutexLock lock(mu_);
  if (fault.active()) {
    edge_faults_[{a, b}] = fault;
  } else {
    edge_faults_.erase({a, b});
  }
}

void Fabric::SetDefaultFault(EdgeFault fault) {
  MutexLock lock(mu_);
  default_fault_ = fault;
}

void Fabric::ClearFaults() {
  MutexLock lock(mu_);
  edge_faults_.clear();
  default_fault_ = EdgeFault();
}

void Fabric::SetFaultSeed(uint64_t seed) {
  MutexLock lock(mu_);
  fault_rng_ = Random(seed);
}

void Fabric::SetObservers(obs::MetricsRegistry* metrics,
                          obs::TraceCollector* traces) {
  metrics_ = metrics;
  traces_ = traces;
  for (size_t slot = 0; slot < call_counters_.size(); slot++) {
    const char* name = MsgTypeName(static_cast<MsgType>(slot));
    call_counters_[slot] =
        metrics == nullptr || strcmp(name, "unknown") == 0
            ? nullptr
            : metrics->GetCounter(std::string("rpc.") + name + ".calls");
  }
}

Status Fabric::Call(NodeId from, NodeId to, MsgType type,
                    const std::string& body, std::string* response) {
  Handler handler;
  bool drop = false;
  bool duplicate = false;
  uint32_t extra_latency_us = 0;
  {
    MutexLock lock(mu_);
    if (down_.count(to) > 0) {
      return Status::Unavailable("node " + std::to_string(to) + " is down");
    }
    const auto key = from < to ? std::make_pair(from, to)
                               : std::make_pair(to, from);
    if (partitions_.count(key) > 0) {
      return Status::Unavailable("network partition between " +
                                 std::to_string(from) + " and " +
                                 std::to_string(to));
    }
    auto it = handlers_.find(to);
    if (it == handlers_.end()) {
      return Status::Unavailable("node " + std::to_string(to) +
                                 " not registered");
    }
    handler = it->second;

    auto fault_it = edge_faults_.find(key);
    const EdgeFault& fault =
        fault_it != edge_faults_.end() ? fault_it->second : default_fault_;
    if (fault.active()) {
      if (fault.drop_probability > 0.0 &&
          fault_rng_.NextDouble() < fault.drop_probability) {
        drop = true;
      } else if (fault.duplicate_probability > 0.0 &&
                 fault_rng_.NextDouble() < fault.duplicate_probability) {
        duplicate = true;
      }
      extra_latency_us = fault.extra_latency_us;
    }
  }

  if (extra_latency_us > 0) {
    if (metrics_ != nullptr) metrics_->GetCounter("fault.net.delayed")->Add();
    std::this_thread::sleep_for(std::chrono::microseconds(extra_latency_us));
  }
  if (drop) {
    // The request leaves the caller and vanishes; the caller pays the hop
    // and sees the same Unavailable a timeout would produce.
    if (metrics_ != nullptr) metrics_->GetCounter("fault.net.dropped")->Add();
    if (latency_ != nullptr) {
      latency_->NetworkHop();
      latency_->Settle();
    }
    return Status::Unavailable("injected message drop between " +
                               std::to_string(from) + " and " +
                               std::to_string(to));
  }

  calls_made_.fetch_add(1, std::memory_order_relaxed);
  const size_t slot = static_cast<size_t>(type);
  obs::Counter* calls =
      slot < call_counters_.size() ? call_counters_[slot] : nullptr;
  if (calls != nullptr) calls->Add();

  // Wire framing: [trace context][body]. The context is round-tripped
  // through real encode/decode (like every message body on this fabric)
  // so the serving side works from the decoded bytes, not shared memory.
  const obs::TraceContext& ambient = obs::CurrentTraceContext();
  std::string frame;
  (ambient.active() ? ambient.Child() : obs::TraceContext()).EncodeTo(&frame);
  frame.append(body);

  Slice on_wire(frame);
  obs::TraceContext server_ctx;
  if (!obs::TraceContext::DecodeFrom(&on_wire, &server_ctx)) {
    return Status::Corruption("malformed rpc trace frame");
  }

  if (latency_ != nullptr) latency_->NetworkHop();  // request on the wire
  Status s;
  {
    // Handler runs under the decoded (server-side) context; its spans
    // parent to the caller's span through the wire-carried ids.
    obs::ScopedTraceContext scope(std::move(server_ctx));
    obs::SpanTimer span(metrics_, traces_,
                        std::string("rpc.") + MsgTypeName(type));
    if (duplicate) {
      // The "network" delivered the request twice; only the second
      // response makes it back. Handlers must tolerate the replay.
      if (metrics_ != nullptr) {
        metrics_->GetCounter("fault.net.duplicated")->Add();
      }
      std::string discarded;
      // The duplicate's status is discarded by design: only the second
      // delivery's response makes it back to the caller.
      handler(type, on_wire, &discarded).IgnoreError();
    }
    s = handler(type, on_wire, response);
  }
  if (latency_ != nullptr) {
    latency_->NetworkHop();  // response on the wire
    // Materialize this RPC's whole cost (hops + WAL/disk work accrued by
    // the handler on this thread) as a single sleep.
    latency_->Settle();
  }
  return s;
}

}  // namespace diffindex
