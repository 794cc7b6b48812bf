// LruCache: eviction order, replacement accounting, Clear, and concurrent
// mixed access (the base-row cache and the SSTable block cache both lean
// on these properties).

#include "util/cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

namespace diffindex {
namespace {

std::shared_ptr<const std::string> Val(const std::string& s) {
  return std::make_shared<const std::string>(s);
}

TEST(LruCacheTest, InsertLookupErase) {
  LruCache<const std::string> cache(1024);
  cache.Insert("a", Val("alpha"), 10);
  auto got = cache.Lookup("a");
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(*got, "alpha");
  EXPECT_EQ(cache.usage(), 10u);

  cache.Erase("a");
  EXPECT_EQ(cache.Lookup("a"), nullptr);
  EXPECT_EQ(cache.usage(), 0u);
}

TEST(LruCacheTest, ReplaceUpdatesValueAndCharge) {
  LruCache<const std::string> cache(1024);
  cache.Insert("k", Val("v1"), 100);
  cache.Insert("k", Val("v2"), 40);
  auto got = cache.Lookup("k");
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(*got, "v2");
  EXPECT_EQ(cache.usage(), 40u);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsedFirst) {
  LruCache<const std::string> cache(30);
  cache.Insert("a", Val("1"), 10);
  cache.Insert("b", Val("2"), 10);
  cache.Insert("c", Val("3"), 10);
  // Touch "a" so "b" is now the coldest.
  ASSERT_NE(cache.Lookup("a"), nullptr);
  cache.Insert("d", Val("4"), 10);  // over capacity: evict "b"
  EXPECT_EQ(cache.Lookup("b"), nullptr);
  EXPECT_NE(cache.Lookup("a"), nullptr);
  EXPECT_NE(cache.Lookup("c"), nullptr);
  EXPECT_NE(cache.Lookup("d"), nullptr);
  EXPECT_LE(cache.usage(), 30u);
}

TEST(LruCacheTest, EvictedValueStaysAliveWhileHeld) {
  LruCache<const std::string> cache(10);
  cache.Insert("a", Val("pinned"), 10);
  auto held = cache.Lookup("a");
  ASSERT_NE(held, nullptr);
  cache.Insert("b", Val("usurper"), 10);  // evicts "a"
  EXPECT_EQ(cache.Lookup("a"), nullptr);
  EXPECT_EQ(*held, "pinned");  // the handle keeps the value valid
}

TEST(LruCacheTest, ClearDropsEverything) {
  LruCache<const std::string> cache(1024);
  for (int i = 0; i < 16; i++) {
    cache.Insert("k" + std::to_string(i), Val("v"), 8);
  }
  EXPECT_GT(cache.usage(), 0u);
  cache.Clear();
  EXPECT_EQ(cache.usage(), 0u);
  for (int i = 0; i < 16; i++) {
    EXPECT_EQ(cache.Lookup("k" + std::to_string(i)), nullptr);
  }
  // Still usable after Clear.
  cache.Insert("again", Val("x"), 8);
  EXPECT_NE(cache.Lookup("again"), nullptr);
}

TEST(LruCacheTest, HitMissCounters) {
  LruCache<const std::string> cache(1024);
  cache.Insert("a", Val("1"), 8);
  (void)cache.Lookup("a");
  (void)cache.Lookup("a");
  (void)cache.Lookup("nope");
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(LruCacheTest, ConcurrentMixedAccess) {
  // Writers, readers and clearers race over a small capacity (constant
  // eviction). Correctness here is "no crash, no corrupted value, usage
  // within bounds" — TSan gives the memory-model verdict.
  LruCache<const std::string> cache(64 * 40);
  constexpr int kThreads = 6;
  constexpr int kOpsPerThread = 3000;
  std::atomic<bool> corrupt{false};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&cache, &corrupt, t] {
      for (int i = 0; i < kOpsPerThread; i++) {
        const std::string key = "k" + std::to_string((t * 31 + i) % 50);
        switch (i % 5) {
          case 0:
          case 1:
            cache.Insert(key, Val("value-of-" + key), 40);
            break;
          case 2:
          case 3: {
            auto got = cache.Lookup(key);
            if (got != nullptr && *got != "value-of-" + key) {
              corrupt.store(true);
            }
            break;
          }
          case 4:
            if (i % 97 == 0) {
              cache.Clear();
            } else {
              cache.Erase(key);
            }
            break;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_FALSE(corrupt.load());
  EXPECT_LE(cache.usage(), 64u * 40u);
}

}  // namespace
}  // namespace diffindex
