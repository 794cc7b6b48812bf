// Tests for Slice, Status, CRC32C, bloom filter, LRU cache, histogram,
// zipfian generator, thread pool, and the timestamp oracle.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "util/bloom.h"
#include "util/cache.h"
#include "util/crc32c.h"
#include "util/histogram.h"
#include "util/random.h"
#include "util/slice.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "util/timestamp_oracle.h"
#include "util/zipfian.h"

namespace diffindex {
namespace {

// ---- Slice ----

TEST(SliceTest, CompareOrdersBytewise) {
  EXPECT_LT(Slice("a").compare(Slice("b")), 0);
  EXPECT_GT(Slice("b").compare(Slice("a")), 0);
  EXPECT_EQ(Slice("abc").compare(Slice("abc")), 0);
  // A proper prefix sorts first.
  EXPECT_LT(Slice("ab").compare(Slice("abc")), 0);
  EXPECT_GT(Slice("abc").compare(Slice("ab")), 0);
}

TEST(SliceTest, StartsWith) {
  EXPECT_TRUE(Slice("hello").starts_with(Slice("he")));
  EXPECT_TRUE(Slice("hello").starts_with(Slice("")));
  EXPECT_FALSE(Slice("hello").starts_with(Slice("hex")));
  EXPECT_FALSE(Slice("he").starts_with(Slice("hello")));
}

TEST(SliceTest, EmbeddedNulBytes) {
  const std::string a("a\0b", 3);
  const std::string b("a\0c", 3);
  EXPECT_LT(Slice(a).compare(Slice(b)), 0);
  EXPECT_EQ(Slice(a).size(), 3u);
}

// ---- Status ----

TEST(StatusTest, OkIsDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesMessage) {
  Status s = Status::NotFound("key xyz");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.ToString(), "NotFound: key xyz");
}

TEST(StatusTest, CopyPreservesState) {
  Status s = Status::Corruption("bad block");
  Status t = s;
  EXPECT_TRUE(t.IsCorruption());
  EXPECT_EQ(t.message(), "bad block");
}

TEST(StatusTest, ReturnNotOkMacro) {
  auto fails = [] { return Status::IOError("disk"); };
  auto wrapper = [&]() -> Status {
    DIFFINDEX_RETURN_NOT_OK(fails());
    return Status::OK();
  };
  EXPECT_TRUE(wrapper().IsIOError());
}

// ---- CRC32C ----

TEST(Crc32cTest, KnownValues) {
  // Standard check value: crc32c("123456789") == 0xe3069283.
  EXPECT_EQ(crc32c::Value("123456789", 9), 0xe3069283u);
}

TEST(Crc32cTest, ExtendEqualsWhole) {
  const std::string data = "hello world, this is a wal record";
  const uint32_t whole = crc32c::Value(data.data(), data.size());
  const uint32_t partial = crc32c::Extend(
      crc32c::Value(data.data(), 10), data.data() + 10, data.size() - 10);
  EXPECT_EQ(whole, partial);
}

TEST(Crc32cTest, Rfc3720Vectors) {
  // RFC 3720 appendix B.4 (iSCSI CRC32C test vectors).
  std::string buf(32, '\x00');
  EXPECT_EQ(crc32c::Value(buf.data(), buf.size()), 0x8a9136aau);
  buf.assign(32, '\xff');
  EXPECT_EQ(crc32c::Value(buf.data(), buf.size()), 0x62a8ab43u);
  for (int i = 0; i < 32; i++) buf[i] = static_cast<char>(i);
  EXPECT_EQ(crc32c::Value(buf.data(), buf.size()), 0x46dd794eu);
  for (int i = 0; i < 32; i++) buf[i] = static_cast<char>(31 - i);
  EXPECT_EQ(crc32c::Value(buf.data(), buf.size()), 0x113fdb5cu);
}

TEST(Crc32cTest, MatchesPortableTableImplementation) {
  // Every length up to past two 4 KB blocks, at every start offset mod 8,
  // so the word loop, the byte tail and unaligned loads are all covered.
  Random rng(20140324);
  const std::string data = rng.RandomBytes(9000 + 8);
  for (size_t len = 0; len <= 9000; len++) {
    for (size_t off = 0; off < 8; off++) {
      const char* p = data.data() + off;
      ASSERT_EQ(crc32c::Value(p, len),
                crc32c::internal::ExtendPortable(0, p, len))
          << "len=" << len << " off=" << off;
    }
  }
  // Chained Extend from a non-zero init, split at a random point.
  for (int i = 0; i < 2000; i++) {
    const auto init = static_cast<uint32_t>(rng.Next());
    const size_t off = rng.Uniform(8);
    const size_t len = rng.Uniform(9001);
    const size_t split = rng.Uniform(len + 1);
    const char* p = data.data() + off;
    const uint32_t chained =
        crc32c::Extend(crc32c::Extend(init, p, split), p + split, len - split);
    ASSERT_EQ(chained, crc32c::internal::ExtendPortable(init, p, len))
        << "init=" << init << " len=" << len << " split=" << split;
  }
}

TEST(Crc32cTest, MaskRoundTripAndDiffers) {
  const uint32_t crc = crc32c::Value("foo", 3);
  EXPECT_NE(crc32c::Mask(crc), crc);
  EXPECT_EQ(crc32c::Unmask(crc32c::Mask(crc)), crc);
}

// ---- Bloom filter ----

TEST(BloomTest, NoFalseNegatives) {
  BloomFilterPolicy policy(10);
  std::vector<std::string> key_storage;
  std::vector<Slice> keys;
  for (int i = 0; i < 1000; i++) {
    key_storage.push_back("key" + std::to_string(i));
  }
  for (const auto& k : key_storage) keys.emplace_back(k);
  std::string filter;
  policy.CreateFilter(keys, &filter);
  for (const auto& k : key_storage) {
    EXPECT_TRUE(policy.KeyMayMatch(Slice(k), Slice(filter))) << k;
  }
}

TEST(BloomTest, FalsePositiveRateIsReasonable) {
  BloomFilterPolicy policy(10);
  std::vector<std::string> key_storage;
  std::vector<Slice> keys;
  for (int i = 0; i < 10000; i++) {
    key_storage.push_back("present" + std::to_string(i));
  }
  for (const auto& k : key_storage) keys.emplace_back(k);
  std::string filter;
  policy.CreateFilter(keys, &filter);

  int false_positives = 0;
  const int probes = 10000;
  for (int i = 0; i < probes; i++) {
    if (policy.KeyMayMatch(Slice("absent" + std::to_string(i)),
                           Slice(filter))) {
      false_positives++;
    }
  }
  // 10 bits/key should be ~1%; allow generous slack.
  EXPECT_LT(false_positives, probes / 20);
}

TEST(BloomTest, EmptyFilterMatchesNothing) {
  BloomFilterPolicy policy(10);
  std::string filter;
  policy.CreateFilter({}, &filter);
  EXPECT_FALSE(policy.KeyMayMatch(Slice("anything"), Slice(filter)));
}

// ---- LRU cache ----

TEST(LruCacheTest, InsertLookup) {
  LruCache<const std::string> cache(1024);
  cache.Insert("a", std::make_shared<std::string>("va"), 2);
  auto v = cache.Lookup("a");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(*v, "va");
  EXPECT_EQ(cache.Lookup("b"), nullptr);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  LruCache<const std::string> cache(10);
  cache.Insert("a", std::make_shared<std::string>("1"), 4);
  cache.Insert("b", std::make_shared<std::string>("2"), 4);
  // Touch "a" so "b" is the LRU victim.
  ASSERT_NE(cache.Lookup("a"), nullptr);
  cache.Insert("c", std::make_shared<std::string>("3"), 4);
  EXPECT_NE(cache.Lookup("a"), nullptr);
  EXPECT_EQ(cache.Lookup("b"), nullptr);
  EXPECT_NE(cache.Lookup("c"), nullptr);
}

TEST(LruCacheTest, ReplaceUpdatesCharge) {
  LruCache<const std::string> cache(100);
  cache.Insert("a", std::make_shared<std::string>("old"), 60);
  EXPECT_EQ(cache.usage(), 60u);
  cache.Insert("a", std::make_shared<std::string>("new"), 10);
  EXPECT_EQ(cache.usage(), 10u);
  EXPECT_EQ(*cache.Lookup("a"), "new");
}

TEST(LruCacheTest, EraseRemoves) {
  LruCache<const std::string> cache(100);
  cache.Insert("a", std::make_shared<std::string>("v"), 5);
  cache.Erase("a");
  EXPECT_EQ(cache.Lookup("a"), nullptr);
  EXPECT_EQ(cache.usage(), 0u);
}

TEST(LruCacheTest, ValueSurvivesEviction) {
  LruCache<const std::string> cache(4);
  auto held = std::make_shared<std::string>("pinned");
  cache.Insert("a", held, 4);
  cache.Insert("b", std::make_shared<std::string>("evictor"), 4);
  EXPECT_EQ(cache.Lookup("a"), nullptr);
  EXPECT_EQ(*held, "pinned");  // shared_ptr keeps the block alive
}

// ---- Histogram ----

TEST(HistogramTest, BasicStats) {
  Histogram h;
  for (uint64_t v = 1; v <= 100; v++) h.Add(v);
  EXPECT_EQ(h.Count(), 100u);
  EXPECT_DOUBLE_EQ(h.Average(), 50.5);
  EXPECT_EQ(h.Min(), 1u);
  EXPECT_EQ(h.Max(), 100u);
  EXPECT_GE(h.Percentile(50), 45u);
  EXPECT_LE(h.Percentile(50), 70u);
  EXPECT_GE(h.Percentile(99), 90u);
}

TEST(HistogramTest, MergeCombines) {
  Histogram a, b;
  a.Add(10);
  b.Add(1000);
  a.Merge(b);
  EXPECT_EQ(a.Count(), 2u);
  EXPECT_EQ(a.Min(), 10u);
  EXPECT_EQ(a.Max(), 1000u);
}

TEST(HistogramTest, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.Average(), 0.0);
  EXPECT_EQ(h.Percentile(99), 0u);
}

TEST(HistogramTest, ConcurrentAdds) {
  Histogram h;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; t++) {
    threads.emplace_back([&h] {
      for (int i = 0; i < 10000; i++) h.Add(100);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.Count(), 80000u);
  EXPECT_DOUBLE_EQ(h.Average(), 100.0);
}

// ---- Zipfian ----

TEST(ZipfianTest, StaysInRange) {
  ZipfianGenerator gen(1000, 1);
  for (int i = 0; i < 10000; i++) {
    EXPECT_LT(gen.Next(), 1000u);
  }
}

TEST(ZipfianTest, IsSkewedTowardSmallItems) {
  ZipfianGenerator gen(10000, 7);
  std::map<uint64_t, int> counts;
  const int n = 100000;
  for (int i = 0; i < n; i++) counts[gen.Next()]++;
  // Item 0 should be drawn far more often than uniform (n / 10000 = 10).
  EXPECT_GT(counts[0], 1000);
  // And more often than item 100.
  EXPECT_GT(counts[0], counts[100]);
}

TEST(ZipfianTest, ScrambledSpreadsHotKeys) {
  ScrambledZipfianGenerator gen(10000, 7);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 100000; i++) counts[gen.Next()]++;
  // The hottest key should not be item 0 specifically (scrambling moved
  // it), but some key must still be very hot.
  int max_count = 0;
  for (const auto& [k, c] : counts) max_count = std::max(max_count, c);
  EXPECT_GT(max_count, 1000);
}

TEST(ZipfianTest, DeterministicGivenSeed) {
  ZipfianGenerator a(1000, 0.99, 42), b(1000, 0.99, 42);
  for (int i = 0; i < 100; i++) EXPECT_EQ(a.Next(), b.Next());
}

// ---- ThreadPool ----

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(pool.Submit([&counter] { counter++; }));
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitBlocksUntilIdle) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 10; i++) {
    pool.Submit([&done] {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      done++;
    });
  }
  pool.Wait();
  EXPECT_EQ(done.load(), 10);
}

TEST(ThreadPoolTest, RejectsAfterShutdown) {
  ThreadPool pool(1);
  pool.Shutdown();
  EXPECT_FALSE(pool.Submit([] {}));
}

// ---- TimestampOracle ----

TEST(TimestampOracleTest, StrictlyIncreasing) {
  TimestampOracle oracle;
  Timestamp prev = 0;
  for (int i = 0; i < 10000; i++) {
    Timestamp t = oracle.Next();
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(TimestampOracleTest, UniqueUnderConcurrency) {
  TimestampOracle oracle;
  constexpr int kThreads = 8, kPerThread = 5000;
  std::vector<std::vector<Timestamp>> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&oracle, &results, t] {
      results[t].reserve(kPerThread);
      for (int i = 0; i < kPerThread; i++) {
        results[t].push_back(oracle.Next());
      }
    });
  }
  for (auto& t : threads) t.join();
  std::set<Timestamp> all;
  for (const auto& v : results) all.insert(v.begin(), v.end());
  EXPECT_EQ(all.size(), static_cast<size_t>(kThreads * kPerThread));
}

// ---- Random ----

TEST(RandomTest, DeterministicGivenSeed) {
  Random a(7), b(7);
  for (int i = 0; i < 100; i++) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, UniformInRange) {
  Random r(1);
  for (int i = 0; i < 1000; i++) {
    uint64_t v = r.Range(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

}  // namespace
}  // namespace diffindex
