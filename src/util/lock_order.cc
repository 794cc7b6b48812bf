#include "util/lock_order.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace diffindex {
namespace lock_order {
namespace {

std::atomic<ViolationHandler> g_handler{nullptr};

void DefaultHandler(const char* report) {
  std::fprintf(stderr, "%s", report);
  std::abort();
}

}  // namespace

ViolationHandler SetViolationHandler(ViolationHandler handler) {
  return g_handler.exchange(handler);
}

#ifdef DIFFINDEX_LOCK_ORDER_CHECKS

namespace {

struct HeldLock {
  LockRank rank;
  const void* addr;
  bool shared;
  const char* name;
};

// Deliberately a fixed-size stack: the validator must not allocate (it
// runs inside lock acquisition, including under sanitizers) and real
// nesting depth in this codebase is ≤ 5.
constexpr int kMaxHeld = 16;

struct ThreadLockState {
  HeldLock held[kMaxHeld];
  int depth = 0;
};

thread_local ThreadLockState tls_locks;

void ReportViolation(const HeldLock& prior, LockRank rank, bool shared,
                     const char* name) {
  char report[512];
  std::snprintf(report, sizeof(report),
                "lock-order violation: acquiring %s (rank %d%s) while "
                "holding %s (rank %d%s); the global order (the LockRank "
                "ladder in util/lock_order.h, DESIGN.md §12.7) requires "
                "strictly increasing ranks\n",
                name, static_cast<int>(rank), shared ? ", shared" : "",
                prior.name, static_cast<int>(prior.rank),
                prior.shared ? ", shared" : "");
  ViolationHandler handler = g_handler.load();
  (handler ? handler : DefaultHandler)(report);
}

}  // namespace

void OnAcquire(LockRank rank, const void* addr, bool shared,
               const char* name) {
  if (rank == LockRank::kUnranked) return;
  ThreadLockState& st = tls_locks;
  for (int i = 0; i < st.depth; ++i) {
    const HeldLock& prior = st.held[i];
    if (static_cast<int>(prior.rank) < static_cast<int>(rank)) continue;
    // Waived edge: same-rank shared acquisitions of *different*
    // instances of a shared-only capability (the cross-region flush-gate
    // case) cannot deadlock against each other.
    if (prior.rank == rank && prior.shared && shared && prior.addr != addr &&
        rank == LockRank::kFlushGate) {
      continue;
    }
    ReportViolation(prior, rank, shared, name);
    return;  // handler may return (tests); record nothing further
  }
  if (st.depth < kMaxHeld) {
    st.held[st.depth++] = HeldLock{rank, addr, shared, name};
  }
}

void OnRelease(LockRank rank, const void* addr) {
  if (rank == LockRank::kUnranked) return;
  ThreadLockState& st = tls_locks;
  // Release order need not be LIFO (ReaderMutexLock::Release); scan from
  // the top for the matching entry and compact.
  for (int i = st.depth - 1; i >= 0; --i) {
    if (st.held[i].addr == addr) {
      for (int j = i; j + 1 < st.depth; ++j) st.held[j] = st.held[j + 1];
      --st.depth;
      return;
    }
  }
}

#endif  // DIFFINDEX_LOCK_ORDER_CHECKS

}  // namespace lock_order
}  // namespace diffindex
