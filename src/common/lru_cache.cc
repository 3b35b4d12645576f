#include "common/lru_cache.h"

#include <utility>

namespace ksym {

std::shared_ptr<void> LruCache::Lookup(const CacheKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = lru_.begin(); it != lru_.end(); ++it) {
    if (it->key == key) {
      lru_.splice(lru_.begin(), lru_, it);
      ++stats_.hits;
      return it->value;
    }
  }
  ++stats_.misses;
  return nullptr;
}

std::shared_ptr<void> LruCache::Insert(const CacheKey& key, size_t bytes,
                                       std::shared_ptr<void> value) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = lru_.begin(); it != lru_.end(); ++it) {
    if (it->key == key) {
      lru_.splice(lru_.begin(), lru_, it);
      return it->value;
    }
  }
  lru_.push_front(Entry{key, bytes, std::move(value)});
  stats_.resident_bytes += bytes;
  ++stats_.entries;
  while (stats_.resident_bytes > max_bytes_ && lru_.size() > 1) {
    const Entry& victim = lru_.back();
    stats_.resident_bytes -= victim.bytes;
    --stats_.entries;
    ++stats_.evictions;
    lru_.pop_back();
  }
  if (stats_.resident_bytes > stats_.peak_resident_bytes) {
    stats_.peak_resident_bytes = stats_.resident_bytes;
  }
  return lru_.front().value;
}

void LruCache::RecordBypass() {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.bypasses;
}

CacheStats LruCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace ksym
