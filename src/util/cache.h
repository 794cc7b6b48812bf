// LRU cache behind one mutex, used as the SSTable block cache and by the
// base-row cache. Entries are reference-counted so a value stays valid
// while a reader holds it even if it is evicted concurrently.
//
// T is the value type: `const char[]` block payloads for the block cache
// (filled by one read into a buffer the cache then shares), `const
// std::string` encoded cells for the base-row cache.

#ifndef DIFFINDEX_UTIL_CACHE_H_
#define DIFFINDEX_UTIL_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace diffindex {

template <class T>
class LruCache {
 public:
  using Handle = std::shared_ptr<T>;

  explicit LruCache(size_t capacity_bytes) : capacity_(capacity_bytes) {}

  // Inserts (sharing `value`'s ownership with the cache). charge is the
  // approximate memory footprint. Replaces an existing entry for key.
  void Insert(const std::string& key, Handle value, size_t charge) {
    MutexLock lock(mu_);
    EraseLocked(key);
    lru_.push_front(Entry{key, std::move(value), charge});
    table_.emplace(std::string_view(lru_.front().key), lru_.begin());
    usage_ += charge;
    EvictIfNeededLocked();
  }

  // Returns nullptr on miss.
  Handle Lookup(const std::string& key) {
    MutexLock lock(mu_);
    auto it = table_.find(std::string_view(key));
    if (it == table_.end()) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return nullptr;
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->value;
  }

  void Erase(const std::string& key) {
    MutexLock lock(mu_);
    EraseLocked(key);
  }

  // Drops every entry (capacity and hit/miss counters are untouched).
  void Clear() {
    MutexLock lock(mu_);
    table_.clear();
    lru_.clear();
    usage_ = 0;
  }

  size_t usage() const {
    MutexLock lock(mu_);
    return usage_;
  }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

 private:
  struct Entry {
    std::string key;
    Handle value;
    size_t charge;
  };
  using LruList = std::list<Entry>;

  void EraseLocked(std::string_view key) REQUIRES(mu_) {
    auto it = table_.find(key);
    if (it == table_.end()) return;
    const typename LruList::iterator node = it->second;
    usage_ -= node->charge;
    table_.erase(it);
    lru_.erase(node);
  }

  void EvictIfNeededLocked() REQUIRES(mu_) {
    while (usage_ > capacity_ && !lru_.empty()) {
      const Entry& victim = lru_.back();
      usage_ -= victim.charge;
      table_.erase(std::string_view(victim.key));
      lru_.pop_back();
    }
  }

  const size_t capacity_;
  mutable Mutex mu_;
  LruList lru_ GUARDED_BY(mu_);  // front = most recent
  // Keys view the list node's own copy of the key: nodes never move.
  std::unordered_map<std::string_view, typename LruList::iterator> table_
      GUARDED_BY(mu_);
  size_t usage_ GUARDED_BY(mu_) = 0;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
};

// The SSTable block cache: verified data-block payloads.
using BlockCache = LruCache<const char[]>;

}  // namespace diffindex

#endif  // DIFFINDEX_UTIL_CACHE_H_
