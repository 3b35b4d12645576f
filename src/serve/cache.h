// GraphCache: the daemon's mmap-backed input cache (DESIGN.md §12).
//
// ksym_serve loads each distinct .ksymcsr input once and serves every
// subsequent request that names it from the mapping already in memory. The
// cache key is the file's *header checksum* (read in O(1) via
// ReadCsrFileInfo), not its path: two paths to the same bytes share one
// entry, and an overwritten file is a new key, never a stale hit. Entries
// live in the byte-budget LRU of common/lru_cache.h: lookups hand out
// shared_ptr pins, so an in-flight request can never have its mapping
// unmapped underneath it — eviction just releases budget.
//
// Three entry kinds, disjoint key spaces:
//   * whole graphs   (MapCsrFile — zero-copy, bytes = file size)
//   * release triples (ReadReleaseCsrFile — materialized, bytes estimated)
//   * shard sets     (ShardedGraph — keyed by manifest-file checksum;
//                     single-threaded, so the entry carries a mutex and
//                     callers hold it across use; bytes = the set's own
//                     residency cap, a conservative bound)
//
// Text inputs are never cached (no checksummed header to key on); the API
// layer loads them per-request and records a bypass.

#ifndef KSYM_SERVE_CACHE_H_
#define KSYM_SERVE_CACHE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "common/lru_cache.h"
#include "common/status.h"
#include "graph/io.h"
#include "ksym/release_io.h"
#include "shard/sharded_graph.h"

namespace ksym {
namespace serve {

/// A cached shard set. ShardedGraph is single-threaded (its residency LRU
/// mutates on every access), so concurrent requests on the same manifest
/// serialize on `mu` for the duration of their computation.
struct CachedShardSet {
  std::mutex mu;
  ShardedGraph graph;

  explicit CachedShardSet(ShardedGraph g) : graph(std::move(g)) {}
};

class GraphCache {
 public:
  explicit GraphCache(size_t max_bytes) : lru_(max_bytes) {}

  GraphCache(const GraphCache&) = delete;
  GraphCache& operator=(const GraphCache&) = delete;

  /// Whole-graph lookup for a binary .ksymcsr file. `hit`, if non-null,
  /// reports whether the mapping was already resident. Validation runs only
  /// on the miss path — a hit re-serves the already-validated mapping.
  Result<std::shared_ptr<const MappedCsrGraph>> GetGraph(
      const std::string& path, bool* hit = nullptr);

  /// Release-triple lookup for a binary release file.
  Result<std::shared_ptr<const ReleaseTriple>> GetRelease(
      const std::string& path, bool* hit = nullptr);

  /// Shard-set lookup by manifest path (keyed by the manifest file's
  /// content checksum). Callers must lock the entry's `mu` while driving
  /// the graph.
  Result<std::shared_ptr<CachedShardSet>> GetShardSet(
      const std::string& manifest_path, const ShardedGraphOptions& options,
      bool* hit = nullptr);

  /// Counts an uncacheable (text) load in the stats.
  void RecordBypass() { lru_.RecordBypass(); }

  /// misses: lookups that had to load from disk; bypasses: uncacheable
  /// (text) inputs loaded around the cache.
  CacheStats stats() const { return lru_.stats(); }
  size_t max_bytes() const { return lru_.max_bytes(); }

 private:
  LruCache lru_;  // Keys: 'g' graphs, 'r' releases, 's' shard sets.
};

}  // namespace serve
}  // namespace ksym

#endif  // KSYM_SERVE_CACHE_H_
