// LruCache: the byte-budget LRU under both daemon caches — the input cache
// (serve/cache.h) and the plan cache (dyn/plan_cache.h).
//
// Entries are type-erased shared_ptrs keyed by (kind, checksum, param).
// Lookups hand out pins, and eviction only drops the cache's own
// reference, so a holder never loses its data — eviction just releases
// budget. Entries are evicted least recently used first once the resident
// bytes pass `max_bytes`, except the entry just inserted, which is always
// admitted (progress beats the budget). An insert that races another for
// the same key keeps the incumbent, so both callers share one value.

#ifndef KSYM_COMMON_LRU_CACHE_H_
#define KSYM_COMMON_LRU_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>

namespace ksym {

struct CacheKey {
  char kind = 0;          // Disjoint key space per entry kind.
  uint64_t checksum = 0;  // Content checksum of the cached thing.
  uint64_t param = 0;     // Further key part (e.g. k), 0 if unused.

  friend bool operator==(const CacheKey&, const CacheKey&) = default;
};

struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;     // Lookups that found nothing.
  uint64_t evictions = 0;
  uint64_t bypasses = 0;   // Uncacheable loads recorded by the owner.
  size_t resident_bytes = 0;
  size_t peak_resident_bytes = 0;
  size_t entries = 0;
};

class LruCache {
 public:
  explicit LruCache(size_t max_bytes) : max_bytes_(max_bytes) {}

  LruCache(const LruCache&) = delete;
  LruCache& operator=(const LruCache&) = delete;

  /// The entry's value if resident (moved to the front), else nullptr.
  std::shared_ptr<void> Lookup(const CacheKey& key);

  /// Inserts `value` (or re-finds a racing incumbent) and evicts past the
  /// cap. Returns the value to use.
  std::shared_ptr<void> Insert(const CacheKey& key, size_t bytes,
                               std::shared_ptr<void> value);

  /// Counts an uncacheable load in the stats.
  void RecordBypass();

  CacheStats stats() const;
  size_t max_bytes() const { return max_bytes_; }

 private:
  struct Entry {
    CacheKey key;
    size_t bytes = 0;
    std::shared_ptr<void> value;
  };

  mutable std::mutex mu_;
  const size_t max_bytes_;
  CacheStats stats_;
  std::list<Entry> lru_;  // Front = most recently used.
};

}  // namespace ksym

#endif  // KSYM_COMMON_LRU_CACHE_H_
