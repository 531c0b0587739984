// ShardedLruCache: hit/miss behaviour, per-shard LRU eviction, counter
// accounting (lifetime totals survive Clear — QueryStats reports
// per-query deltas of them), and a concurrent smoke test, since every
// query-side cache in the engine is an instance of this template.

#include "common/sharded_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace sama {
namespace {

TEST(ShardedCacheTest, GetReturnsWhatPutStored) {
  ShardedLruCache<int, std::string> cache(/*capacity=*/16, /*shards=*/4);
  std::string value;
  EXPECT_FALSE(cache.Get(1, &value));
  cache.Put(1, "one");
  cache.Put(2, "two");
  ASSERT_TRUE(cache.Get(1, &value));
  EXPECT_EQ(value, "one");
  ASSERT_TRUE(cache.Get(2, &value));
  EXPECT_EQ(value, "two");
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ShardedCacheTest, PutOverwritesExistingKey) {
  ShardedLruCache<int, int> cache(8, 1);
  cache.Put(7, 1);
  cache.Put(7, 2);
  int value = 0;
  ASSERT_TRUE(cache.Get(7, &value));
  EXPECT_EQ(value, 2);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ShardedCacheTest, EvictsLeastRecentlyUsedWithinShard) {
  // One shard makes the LRU order global and the test deterministic.
  ShardedLruCache<int, int> cache(/*capacity=*/3, /*shards=*/1);
  cache.Put(1, 10);
  cache.Put(2, 20);
  cache.Put(3, 30);
  // Touch 1 so 2 becomes the eviction victim.
  int value = 0;
  ASSERT_TRUE(cache.Get(1, &value));
  cache.Put(4, 40);
  EXPECT_FALSE(cache.Get(2, &value));  // Evicted.
  EXPECT_TRUE(cache.Get(1, &value));
  EXPECT_TRUE(cache.Get(3, &value));
  EXPECT_TRUE(cache.Get(4, &value));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.counters().evictions, 1u);
}

TEST(ShardedCacheTest, CountersTrackHitsMissesInsertions) {
  ShardedLruCache<int, int> cache(8, 2);
  int value = 0;
  (void)cache.Get(1, &value);  // Miss.
  cache.Put(1, 1);
  (void)cache.Get(1, &value);  // Hit.
  (void)cache.Get(2, &value);  // Miss.
  CacheCounters c = cache.counters();
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.misses, 2u);
  EXPECT_EQ(c.insertions, 1u);
  EXPECT_EQ(c.lookups(), 3u);
  EXPECT_DOUBLE_EQ(c.HitRate(), 1.0 / 3.0);
}

TEST(ShardedCacheTest, ClearEmptiesEntriesButKeepsLifetimeCounters) {
  ShardedLruCache<int, int> cache(8, 2);
  cache.Put(1, 1);
  int value = 0;
  (void)cache.Get(1, &value);
  CacheCounters before = cache.counters();
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Get(1, &value));  // Entries gone...
  CacheCounters after = cache.counters();
  EXPECT_EQ(after.hits, before.hits);  // ...counters kept (+1 miss).
  EXPECT_EQ(after.misses, before.misses + 1);
  // Delta arithmetic used by QueryStats.
  CacheCounters delta = after - before;
  EXPECT_EQ(delta.hits, 0u);
  EXPECT_EQ(delta.misses, 1u);
}

// An overwritten, erased or evicted value waits in its shard's retire
// list; Reclaim frees it once no reader can hold it (two epoch
// advances), without waiting for the list's amortized sweep.
TEST(ShardedCacheTest, ReclaimFreesRetiredValues) {
  ShardedLruCache<int, std::shared_ptr<int>> cache(1, 1);
  std::vector<std::weak_ptr<int>> retired;
  auto put = [&](int key) {
    auto value = std::make_shared<int>(key);
    retired.push_back(value);
    cache.Put(key, std::move(value));
  };
  put(1);
  put(1);                                           // Overwrite.
  cache.EraseIf([](int key) { return key == 1; });  // Erase.
  put(2);
  put(3);  // Evicts 2.
  ASSERT_EQ(retired.size(), 4u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_FALSE(retired[i].expired()) << i << " freed before Reclaim";
  }
  for (int round = 0; round < 3; ++round) cache.Reclaim();
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(retired[i].expired()) << i << " not freed by Reclaim";
  }
  std::shared_ptr<int> live;
  ASSERT_TRUE(cache.Get(3, &live));
  EXPECT_EQ(*live, 3);
}

TEST(ShardedCacheTest, CapacityClampsToOneEntryPerShard) {
  ShardedLruCache<int, int> cache(0, 4);
  EXPECT_EQ(cache.capacity(), 4u);  // Minimum one slot per shard.
  cache.Put(1, 1);
  int value = 0;
  EXPECT_TRUE(cache.Get(1, &value));
  EXPECT_EQ(value, 1);
}

TEST(ShardedCacheTest, ConcurrentMixedWorkloadStaysConsistent) {
  // 8 threads hammer a small cache with overlapping key ranges; the
  // assertion is that every Get that succeeds returns the value the key
  // was stored with (never a torn/other entry) and counters balance.
  ShardedLruCache<uint64_t, uint64_t> cache(128, 8);
  constexpr int kThreads = 8;
  constexpr uint64_t kOpsPerThread = 20000;
  std::vector<std::thread> workers;
  std::atomic<uint64_t> bad_reads{0};
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, &bad_reads, t] {
      uint64_t state = 0x9e3779b97f4a7c15ULL * (t + 1);
      for (uint64_t i = 0; i < kOpsPerThread; ++i) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        uint64_t key = (state >> 33) % 256;
        if (state & 1) {
          cache.Put(key, key * 3 + 1);
        } else {
          uint64_t value = 0;
          if (cache.Get(key, &value) && value != key * 3 + 1) {
            bad_reads.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(bad_reads.load(), 0u);
  EXPECT_LE(cache.size(), cache.capacity());
  CacheCounters c = cache.counters();
  EXPECT_EQ(c.hits + c.misses, c.lookups());
}

TEST(ShardedCacheTest, StatsAreExactUnderMultithreadedHammer) {
  // The lifetime counters are relaxed atomics updated outside any
  // lock — relaxed ordering must not cost a single increment. Readers
  // hammer a pre-filled, never-mutated cache so hit/miss outcomes are
  // deterministic: every Get of a resident key hits, every Get of an
  // absent key misses, and the totals must balance EXACTLY.
  ShardedLruCache<uint64_t, uint64_t> cache(1024, 8);
  constexpr uint64_t kResident = 256;
  for (uint64_t k = 0; k < kResident; ++k) cache.Put(k, k + 7);
  CacheCounters before = cache.counters();
  EXPECT_EQ(before.insertions, kResident);

  constexpr int kThreads = 8;
  constexpr uint64_t kOpsPerThread = 25000;
  std::atomic<uint64_t> expected_hits{0};
  std::atomic<uint64_t> bad_reads{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      uint64_t state = 0x9e3779b97f4a7c15ULL * (t + 1);
      uint64_t hits = 0;
      for (uint64_t i = 0; i < kOpsPerThread; ++i) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        // Half the key range is resident, half can never be.
        uint64_t key = (state >> 33) % (2 * kResident);
        uint64_t value = 0;
        bool found = cache.Get(key, &value);
        if (key < kResident) {
          ++hits;
          if (!found || value != key + 7) bad_reads.fetch_add(1);
        } else if (found) {
          bad_reads.fetch_add(1);
        }
      }
      expected_hits.fetch_add(hits);
    });
  }
  for (std::thread& w : workers) w.join();

  EXPECT_EQ(bad_reads.load(), 0u);
  CacheCounters delta = cache.counters() - before;
  constexpr uint64_t kTotalGets = kThreads * kOpsPerThread;
  EXPECT_EQ(delta.lookups(), kTotalGets);  // Not one Get lost.
  EXPECT_EQ(delta.hits, expected_hits.load());
  EXPECT_EQ(delta.misses, kTotalGets - expected_hits.load());
  EXPECT_EQ(delta.insertions, 0u);
  EXPECT_EQ(delta.evictions, 0u);
}

TEST(ShardedCacheTest, LruLockSkipsCountsContendedTouches) {
  // Single-threaded the try_lock always succeeds: exact LRU, no skips.
  ShardedLruCache<int, int> cache(8, 1);
  cache.Put(1, 1);
  int value = 0;
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(cache.Get(1, &value));
  EXPECT_EQ(cache.lru_lock_skips(), 0u);

  // Under writer contention hits may skip the LRU touch, but a skip is
  // only ever a bookkeeping concession — the Gets themselves succeed.
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    int spin = 0;
    while (!stop.load(std::memory_order_acquire)) {
      int key = 2 + spin % 4;
      ++spin;
      cache.Put(key, spin);
    }
  });
  uint64_t failed_hits = 0;
  for (int i = 0; i < 50000; ++i) {
    if (!cache.Get(1, &value) || value != 1) ++failed_hits;
  }
  stop.store(true, std::memory_order_release);
  writer.join();
  EXPECT_EQ(failed_hits, 0u);  // Skips never turn hits into misses.
}

TEST(ShardedCacheTest, SharedValuesOutliveOverwriteAndEviction) {
  // The record cache and the alignment memo hold shared_ptr values and
  // hand them out: Get copies the pointer, so its reference-count
  // increment must happen while the epoch pin keeps the node, and the
  // pointer it owns, alive. Readers keep what they Get while one writer
  // overwrites and evicts the same keys, so the nodes that owned those
  // payloads are retired and reclaimed under them; every payload must
  // read intact afterwards, and each must be freed exactly once.
  struct Payload {
    Payload(uint64_t k, uint64_t v, std::atomic<int64_t>* live_count)
        : key(k), version(v), words(16), live(live_count) {
      for (size_t i = 0; i < words.size(); ++i) words[i] = Word(i);
      live->fetch_add(1, std::memory_order_relaxed);
    }
    ~Payload() {
      words.assign(words.size(), 0);
      live->fetch_sub(1, std::memory_order_relaxed);
    }
    uint64_t Word(size_t i) const {
      return key * 1000003 + version * 31 + i + 1;
    }
    bool Intact(uint64_t want_key) const {
      if (key != want_key || words.size() != 16) return false;
      for (size_t i = 0; i < words.size(); ++i) {
        if (words[i] != Word(i)) return false;
      }
      return true;
    }
    uint64_t key;
    uint64_t version;
    std::vector<uint64_t> words;
    std::atomic<int64_t>* live;
  };
  using Value = std::shared_ptr<const Payload>;

  uint64_t seed = 1234;
  if (const char* env = std::getenv("SAMA_TORTURE_SEED")) {
    seed = std::stoull(env);
  }
  constexpr uint64_t kKeys = 64;  // Four times the capacity: evictions.
  constexpr int kReaders = 4;
  constexpr int kReadsPerThread = 50000;
  constexpr size_t kHeld = 8;
  std::atomic<int64_t> live{0};
  std::atomic<uint64_t> bad{0};
  std::atomic<uint64_t> hits{0};
  std::atomic<int> readers_done{0};
  {
    EpochManager epochs;
    ShardedLruCache<uint64_t, Value> cache(16, 4, &epochs);
    uint64_t version = 0;
    for (uint64_t key = 0; key < kKeys; ++key) {
      cache.Put(key, std::make_shared<const Payload>(key, ++version, &live));
    }
    std::vector<std::thread> readers;
    for (int r = 0; r < kReaders; ++r) {
      readers.emplace_back([&, r] {
        uint64_t state = seed * 0x9e3779b97f4a7c15ULL + r + 1;
        // (key, payload) pairs kept past the writer's overwrites.
        std::vector<std::pair<uint64_t, Value>> held(kHeld);
        for (int i = 0; i < kReadsPerThread; ++i) {
          state = state * 6364136223846793005ULL + 1442695040888963407ULL;
          const uint64_t key = (state >> 33) % kKeys;
          Value got;
          if (cache.Get(key, &got)) {
            hits.fetch_add(1, std::memory_order_relaxed);
            if (!got->Intact(key)) bad.fetch_add(1);
            held[i % kHeld] = {key, std::move(got)};
          }
          const auto& [old_key, old] = held[(i * 5) % kHeld];
          if (old != nullptr && !old->Intact(old_key)) bad.fetch_add(1);
        }
        for (const auto& [old_key, old] : held) {
          if (old != nullptr && !old->Intact(old_key)) bad.fetch_add(1);
        }
        readers_done.fetch_add(1, std::memory_order_release);
      });
    }
    uint64_t state = seed;
    while (readers_done.load(std::memory_order_acquire) < kReaders) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      const uint64_t key = (state >> 33) % kKeys;
      cache.Put(key, std::make_shared<const Payload>(key, ++version, &live));
    }
    for (std::thread& t : readers) t.join();
    EXPECT_GT(epochs.stats().reclaimed, 0u);  // Retired nodes were freed.
  }
  EXPECT_EQ(bad.load(), 0u);
  EXPECT_GT(hits.load(), 0u);
  // The cache, its retired nodes and every reader's copies are gone.
  EXPECT_EQ(live.load(), 0);
}

}  // namespace
}  // namespace sama
