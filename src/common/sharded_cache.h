#ifndef SAMA_COMMON_SHARDED_CACHE_H_
#define SAMA_COMMON_SHARDED_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/epoch.h"

namespace sama {

// Hit/miss/eviction counters of one cache (or the aggregate over its
// shards), also used as a per-query attribution sink: Get/Put accept an
// optional CacheCounters* that receives the same increments as the
// shard's lifetime counters. Per-query stats MUST come from such scoped
// sinks — diffing the shared lifetime counters around a query windows
// in every concurrent query's traffic too (the attribution bug fixed in
// PR 4; see tests/obs/engine_obs_test.cc).
struct CacheCounters {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t insertions = 0;

  uint64_t lookups() const { return hits + misses; }
  // Hits over lookups; 0 when the cache was never consulted.
  double HitRate() const;
  // "123/456 hits (27.0%), 78 evicted" — for --stats output.
  std::string ToString() const;

  CacheCounters& operator+=(const CacheCounters& other);
  CacheCounters operator-(const CacheCounters& other) const;
};

// Thread-safe accumulator for CacheCounters deltas: ParallelFor chunk
// workers tally into plain chunk-local CacheCounters and merge them
// here at chunk end, so the hot path stays free of shared atomics.
struct AtomicCacheCounters {
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> misses{0};
  std::atomic<uint64_t> evictions{0};
  std::atomic<uint64_t> insertions{0};

  void Merge(const CacheCounters& d) {
    if (d.hits) hits.fetch_add(d.hits, std::memory_order_relaxed);
    if (d.misses) misses.fetch_add(d.misses, std::memory_order_relaxed);
    if (d.evictions) evictions.fetch_add(d.evictions, std::memory_order_relaxed);
    if (d.insertions) {
      insertions.fetch_add(d.insertions, std::memory_order_relaxed);
    }
  }

  CacheCounters Snapshot() const {
    CacheCounters out;
    out.hits = hits.load(std::memory_order_relaxed);
    out.misses = misses.load(std::memory_order_relaxed);
    out.evictions = evictions.load(std::memory_order_relaxed);
    out.insertions = insertions.load(std::memory_order_relaxed);
    return out;
  }
};

// A generic thread-safe LRU cache, sharded by key hash. Lookups are
// LOCK-FREE (DESIGN.md §13): Get pins the epoch, walks an atomic
// collision chain with acquire loads, and copies the value out — no
// shard mutex, no allocation, no contention between readers on hits OR
// misses. Writers (Put/EraseIf/Clear and eviction) serialize on the
// shard mutex; superseded nodes are retired through the epoch manager
// so a reader mid-probe never touches freed memory.
//
// LRU recency on hits is best-effort by design: a hit updates the LRU
// list only when the shard mutex is free (try_lock). Under write
// contention the touch is skipped and counted (lru_lock_skips), so the
// read path never blocks; single-threaded use always acquires the
// uncontended mutex, keeping eviction order exact where tests rely on
// it. Eviction itself (under the write mutex) is exact LRU over the
// recency list. Get copies the value out while pinned, so the caller
// holds a snapshot the cache can evict freely. A large value should be
// held as std::shared_ptr<const T> (the path records, the alignment
// memo): the copy is then one reference-count increment, taken under
// the pin, and the caller shares the immutable entry, which stays
// alive and unchanged after an overwrite, eviction or Clear().
//
// The cache is an optimisation layer only — every user must produce
// identical results with the cache disabled. In particular a value must
// never be Put() unless it is the verified, durable answer for its key
// (e.g. a path record that failed its checksum is NEVER cached; see
// PathIndex::GetPath).
template <typename Key, typename Value, typename Hash = std::hash<Key>>
class ShardedLruCache {
 public:
  // `capacity` is the total entry budget across `shards` shards (each
  // shard gets an equal slice, minimum one entry).
  explicit ShardedLruCache(size_t capacity, size_t shards = 8,
                           EpochManager* epochs = EpochManager::Global())
      : epochs_(epochs),
        per_shard_capacity_(
            capacity / (shards == 0 ? 1 : shards) +
            (capacity % (shards == 0 ? 1 : shards) != 0 ? 1 : 0)) {
    if (shards == 0) shards = 1;
    if (per_shard_capacity_ == 0) per_shard_capacity_ = 1;
    size_t buckets = NextPow2(per_shard_capacity_ * 2);
    shards_.reserve(shards);
    for (size_t i = 0; i < shards; ++i) {
      shards_.push_back(std::make_unique<Shard>(buckets, epochs));
    }
  }

  ~ShardedLruCache() {
    // No readers may be pinned inside a cache being destroyed; live
    // nodes are freed here, retired ones by the shard RetireLists.
    for (auto& shard : shards_) {
      for (auto& bucket : shard->buckets) {
        Node* node = bucket.load(std::memory_order_relaxed);
        while (node != nullptr) {
          Node* next = node->next.load(std::memory_order_relaxed);
          delete node;
          node = next;
        }
      }
    }
  }

  ShardedLruCache(const ShardedLruCache&) = delete;
  ShardedLruCache& operator=(const ShardedLruCache&) = delete;

  // Copies the cached value for `key` into `*out` and (best-effort)
  // marks the entry most-recently-used. Returns false (and counts a
  // miss) when absent. `scoped` (optional) receives the same hit/miss
  // increment, letting a query attribute traffic to itself without
  // touching other queries. Lock-free: never blocks on writers.
  bool Get(const Key& key, Value* out, CacheCounters* scoped = nullptr) {
    uint64_t h = Mix(Hash{}(key));
    Shard& shard = *shards_[h % shards_.size()];
    EpochGuard guard(epochs_);
    Node* node =
        shard.buckets[BucketIndex(shard, h)].load(std::memory_order_acquire);
    while (node != nullptr && !(node->key == key)) {
      node = node->next.load(std::memory_order_acquire);
    }
    if (node == nullptr) {
      shard.misses.fetch_add(1, std::memory_order_relaxed);
      if (scoped) ++scoped->misses;
      return false;
    }
    *out = node->value;  // Copied while pinned; the node cannot be freed.
    shard.hits.fetch_add(1, std::memory_order_relaxed);
    if (scoped) ++scoped->hits;
    // Optional LRU touch: skip rather than contend. `unlinked` (set
    // under the mutex when a node leaves the chain) keeps a racing
    // eviction from resurrecting the node into the recency list.
    if (shard.mu.try_lock()) {
      if (!node->unlinked) MoveToFront(shard, node);
      shard.mu.unlock();
    } else {
      shard.lru_lock_skips.fetch_add(1, std::memory_order_relaxed);
    }
    return true;
  }

  // Inserts or overwrites the value for `key`, evicting the
  // least-recently-used entry of the key's shard when full. Writers
  // serialize per shard; readers are never blocked (superseded nodes
  // are retired, not freed in place).
  void Put(const Key& key, Value value, CacheCounters* scoped = nullptr) {
    uint64_t h = Mix(Hash{}(key));
    Shard& shard = *shards_[h % shards_.size()];
    size_t b = BucketIndex(shard, h);
    std::lock_guard<std::mutex> lock(shard.mu);
    Node* fresh = new Node(key, std::move(value));
    Node* old = FindLocked(shard, b, key);
    // Publish first, then unlink any old node: a concurrent probe sees
    // the new value as soon as possible and never a gap.
    fresh->next.store(shard.buckets[b].load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    shard.buckets[b].store(fresh, std::memory_order_release);
    LinkFront(shard, fresh);
    if (old != nullptr) {
      UnlinkLocked(shard, b, old);
      shard.retired.Retire(old);
      return;  // Overwrite: entry count unchanged, no insertion tick.
    }
    if (shard.entries.load(std::memory_order_relaxed) >=
        per_shard_capacity_) {
      Node* victim = shard.lru_tail;
      if (victim == fresh) victim = victim->lru_prev;  // Never self-evict.
      if (victim != nullptr) {
        UnlinkLocked(shard, BucketIndex(shard, Mix(Hash{}(victim->key))),
                     victim);
        shard.retired.Retire(victim);
        shard.entries.fetch_sub(1, std::memory_order_relaxed);
        shard.evictions.fetch_add(1, std::memory_order_relaxed);
        if (scoped) ++scoped->evictions;
      }
    }
    shard.entries.fetch_add(1, std::memory_order_relaxed);
    shard.insertions.fetch_add(1, std::memory_order_relaxed);
    if (scoped) ++scoped->insertions;
  }

  // Drops every entry (index rebuilds, DropCaches). Counters are kept:
  // they are lifetime totals, and per-query deltas subtract out.
  void Clear() {
    for (auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      for (size_t b = 0; b < shard->buckets.size(); ++b) {
        Node* node = shard->buckets[b].load(std::memory_order_relaxed);
        while (node != nullptr) {
          Node* next = node->next.load(std::memory_order_relaxed);
          node->unlinked = true;
          shard->retired.Retire(node);
          node = next;
        }
        shard->buckets[b].store(nullptr, std::memory_order_release);
      }
      shard->lru_head = nullptr;
      shard->lru_tail = nullptr;
      shard->entries.store(0, std::memory_order_relaxed);
    }
  }

  // Removes every entry whose key satisfies `pred`, returning the
  // number removed. This is the precise-invalidation primitive for
  // live updates: a mutation erases only the entries its touched
  // labels could have contributed to instead of flushing the whole
  // cache. Concurrent readers keep probing lock-free throughout.
  template <typename Pred>
  size_t EraseIf(Pred pred) {
    size_t erased = 0;
    for (auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      for (size_t b = 0; b < shard->buckets.size(); ++b) {
        Node* prev = nullptr;
        Node* node = shard->buckets[b].load(std::memory_order_relaxed);
        while (node != nullptr) {
          Node* next = node->next.load(std::memory_order_relaxed);
          if (pred(node->key)) {
            if (prev == nullptr) {
              shard->buckets[b].store(next, std::memory_order_release);
            } else {
              prev->next.store(next, std::memory_order_release);
            }
            node->unlinked = true;
            UnlinkLru(*shard, node);
            shard->retired.Retire(node);
            shard->entries.fetch_sub(1, std::memory_order_relaxed);
            ++erased;
          } else {
            prev = node;
          }
          node = next;
        }
      }
    }
    return erased;
  }

  // Frees the overwritten, evicted and erased nodes no reader can still
  // hold, in every shard; returns how many. A shard's retire list
  // otherwise frees them only every few retires, which is fine for
  // small values; a cache of large ones calls this after its writes.
  size_t Reclaim() {
    size_t freed = 0;
    for (auto& shard : shards_) freed += shard->retired.Reclaim();
    return freed;
  }

  CacheCounters counters() const {
    CacheCounters total;
    for (const auto& shard : shards_) {
      total.hits += shard->hits.load(std::memory_order_relaxed);
      total.misses += shard->misses.load(std::memory_order_relaxed);
      total.evictions += shard->evictions.load(std::memory_order_relaxed);
      total.insertions += shard->insertions.load(std::memory_order_relaxed);
    }
    return total;
  }

  // Hits that skipped the LRU touch because a writer held the shard
  // mutex — the cache's latch-contention signal (sama_cache_lru_lock_
  // skips). Zero in single-threaded use.
  uint64_t lru_lock_skips() const {
    uint64_t total = 0;
    for (const auto& shard : shards_) {
      total += shard->lru_lock_skips.load(std::memory_order_relaxed);
    }
    return total;
  }

  size_t size() const {
    size_t n = 0;
    for (const auto& shard : shards_) {
      n += shard->entries.load(std::memory_order_relaxed);
    }
    return n;
  }

  size_t capacity() const { return per_shard_capacity_ * shards_.size(); }
  size_t shard_count() const { return shards_.size(); }

 private:
  struct Node {
    Node(const Key& k, Value v) : key(k), value(std::move(v)) {}
    const Key key;
    const Value value;  // Immutable once published; overwrite = new node.
    std::atomic<Node*> next{nullptr};  // Collision chain (atomic for readers).
    // LRU recency links; guarded by the shard mutex.
    Node* lru_prev = nullptr;
    Node* lru_next = nullptr;
    // Set (under the mutex) when the node leaves the chain, so a
    // concurrent hit's deferred LRU touch cannot resurrect it.
    bool unlinked = false;
  };

  struct Shard {
    Shard(size_t bucket_count, EpochManager* epochs)
        : buckets(bucket_count), retired(epochs) {}
    mutable std::mutex mu;  // Writers + LRU bookkeeping only.
    std::vector<std::atomic<Node*>> buckets;
    Node* lru_head = nullptr;  // Most recently used.
    Node* lru_tail = nullptr;  // Least recently used; eviction victim.
    RetireList retired;
    std::atomic<size_t> entries{0};
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> evictions{0};
    std::atomic<uint64_t> insertions{0};
    std::atomic<uint64_t> lru_lock_skips{0};
  };

  static size_t NextPow2(size_t n) {
    size_t p = 8;
    while (p < n) p <<= 1;
    return p;
  }

  // Finalizer-style mix: std::hash may be the identity on integral
  // keys, whose low bits often carry structure.
  static uint64_t Mix(size_t raw) {
    uint64_t h = static_cast<uint64_t>(raw);
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return h;
  }

  // Shard selection consumes the mix modulo shard count (low bits);
  // bucket selection uses an independent slice so the keys of one
  // shard spread over all its buckets.
  static size_t BucketIndex(const Shard& shard, uint64_t h) {
    return (h >> 16) & (shard.buckets.size() - 1);
  }

  // Requires the shard mutex.
  Node* FindLocked(Shard& shard, size_t bucket, const Key& key) {
    Node* node = shard.buckets[bucket].load(std::memory_order_relaxed);
    while (node != nullptr && !(node->key == key)) {
      node = node->next.load(std::memory_order_relaxed);
    }
    return node;
  }

  // Requires the shard mutex. Removes `node` from its collision chain
  // and the LRU list; the node itself stays intact (readers may still
  // be traversing through it) until the epoch grace period passes.
  void UnlinkLocked(Shard& shard, size_t bucket, Node* node) {
    Node* prev = nullptr;
    Node* cur = shard.buckets[bucket].load(std::memory_order_relaxed);
    while (cur != node) {
      prev = cur;
      cur = cur->next.load(std::memory_order_relaxed);
    }
    Node* next = node->next.load(std::memory_order_relaxed);
    if (prev == nullptr) {
      shard.buckets[bucket].store(next, std::memory_order_release);
    } else {
      prev->next.store(next, std::memory_order_release);
    }
    node->unlinked = true;
    UnlinkLru(shard, node);
  }

  // Requires the shard mutex.
  void UnlinkLru(Shard& shard, Node* node) {
    if (node->lru_prev != nullptr) {
      node->lru_prev->lru_next = node->lru_next;
    } else if (shard.lru_head == node) {
      shard.lru_head = node->lru_next;
    }
    if (node->lru_next != nullptr) {
      node->lru_next->lru_prev = node->lru_prev;
    } else if (shard.lru_tail == node) {
      shard.lru_tail = node->lru_prev;
    }
    node->lru_prev = nullptr;
    node->lru_next = nullptr;
  }

  // Requires the shard mutex.
  void LinkFront(Shard& shard, Node* node) {
    node->lru_prev = nullptr;
    node->lru_next = shard.lru_head;
    if (shard.lru_head != nullptr) shard.lru_head->lru_prev = node;
    shard.lru_head = node;
    if (shard.lru_tail == nullptr) shard.lru_tail = node;
  }

  // Requires the shard mutex.
  void MoveToFront(Shard& shard, Node* node) {
    if (shard.lru_head == node) return;
    UnlinkLru(shard, node);
    LinkFront(shard, node);
  }

  EpochManager* epochs_;
  size_t per_shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace sama

#endif  // SAMA_COMMON_SHARDED_CACHE_H_
