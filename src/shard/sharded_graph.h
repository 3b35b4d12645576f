// ShardedGraph: a whole graph served out-of-core from vertex-range
// .ksymcsr shards behind an LRU residency cap (DESIGN.md §10).
//
// Open() reads the manifest, runs its full validation ladder, and
// header-verifies every shard file (existence, counts, header checksum) —
// so once a ShardedGraph exists, later shard loads fail only on concurrent
// external tampering. Shards are then mapped lazily on first touch via
// MapCsrSections and kept resident under `max_resident_bytes`, evicted in
// least-recently-used order.
//
// Residency vs. lifetime: the cache holds shared_ptr<ResidentShard>, and a
// ShardView pins its shard with another reference. Eviction only drops the
// cache's reference — any view a kernel still holds keeps the mapping alive
// — so eviction can never invalidate data mid-computation; it just releases
// the residency budget. The shard being accessed is always admitted, even
// when it alone exceeds the cap (progress beats the budget).
//
// Threading: ShardedGraph itself is single-threaded — one orchestrating
// thread opens shards and hands ShardViews (or the spans inside them) to
// workers, which only read. Its callers (ShardedNeighborSource, and the
// anonymizer's orbit copy and release streaming) all access it from one
// thread.

#ifndef KSYM_SHARD_SHARDED_GRAPH_H_
#define KSYM_SHARD_SHARDED_GRAPH_H_

#include <algorithm>
#include <cstdint>
#include <list>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "shard/manifest.h"

namespace ksym {

struct ShardedGraphOptions {
  /// LRU cap over the summed byte size of resident shard mappings.
  size_t max_resident_bytes = size_t{256} << 20;

  /// Checksum + structure validation on every shard load (including
  /// reloads after eviction). Open() always validates the manifest and
  /// every shard's header regardless.
  bool validate = true;
};

struct ShardResidencyStats {
  uint64_t loads = 0;      // Shard file mappings (cold loads + reloads).
  uint64_t hits = 0;       // Accesses served by an already-resident shard.
  uint64_t evictions = 0;
  size_t resident_bytes = 0;
  size_t peak_resident_bytes = 0;
};

/// One resident shard: the mapping plus its range. Accessors take *global*
/// vertex ids within [begin(), end()).
class ResidentShard {
 public:
  ResidentShard(MappedCsrSections sections, VertexId begin, VertexId end)
      : sections_(std::move(sections)), begin_(begin), end_(end) {}

  VertexId begin() const { return begin_; }
  VertexId end() const { return end_; }
  size_t bytes() const { return sections_.mapping.size(); }

  size_t Degree(VertexId v) const {
    KSYM_DCHECK(v >= begin_ && v < end_);
    const size_t local = v - begin_;
    return static_cast<size_t>(sections_.offsets[local + 1] -
                               sections_.offsets[local]);
  }

  /// Sorted *global* neighbor ids of global vertex `v`.
  std::span<const VertexId> Neighbors(VertexId v) const {
    KSYM_DCHECK(v >= begin_ && v < end_);
    const size_t local = v - begin_;
    return sections_.neighbors.subspan(
        static_cast<size_t>(sections_.offsets[local]),
        static_cast<size_t>(sections_.offsets[local + 1] -
                            sections_.offsets[local]));
  }

  /// This shard's slice of the global labels array ([begin, end)).
  std::span<const uint64_t> labels() const { return sections_.labels; }

  /// Local offsets, rebased to 0, NumVertices() + 1 entries.
  std::span<const EdgeIndex> offsets() const { return sections_.offsets; }

 private:
  MappedCsrSections sections_;
  VertexId begin_;
  VertexId end_;
};

/// A pinned handle on one resident shard. Copyable and cheap; the shard's
/// mapping stays alive as long as any view on it does, eviction
/// notwithstanding.
class ShardView {
 public:
  ShardView() = default;
  explicit ShardView(std::shared_ptr<const ResidentShard> shard)
      : shard_(std::move(shard)) {}

  bool valid() const { return shard_ != nullptr; }
  VertexId begin() const { return shard_->begin(); }
  VertexId end() const { return shard_->end(); }
  size_t NumVertices() const { return shard_->end() - shard_->begin(); }
  size_t Degree(VertexId v) const { return shard_->Degree(v); }
  std::span<const VertexId> Neighbors(VertexId v) const {
    return shard_->Neighbors(v);
  }
  std::span<const uint64_t> labels() const { return shard_->labels(); }
  std::span<const EdgeIndex> offsets() const { return shard_->offsets(); }

 private:
  std::shared_ptr<const ResidentShard> shard_;
};

class ShardedGraph {
 public:
  /// Opens a shard set: parses + validates the manifest and header-verifies
  /// every shard file (the missing-file and count/checksum-mismatch rungs
  /// fire here, before any data is mapped).
  static Result<ShardedGraph> Open(const std::string& manifest_path,
                                   const ShardedGraphOptions& options = {});

  ShardedGraph(ShardedGraph&&) = default;
  ShardedGraph& operator=(ShardedGraph&&) = default;
  ShardedGraph(const ShardedGraph&) = delete;
  ShardedGraph& operator=(const ShardedGraph&) = delete;

  size_t NumVertices() const { return manifest_.num_vertices; }
  size_t NumEdges() const { return manifest_.NumEdges(); }
  uint32_t NumShards() const {
    return static_cast<uint32_t>(manifest_.NumShards());
  }
  const ShardManifest& manifest() const { return manifest_; }
  uint32_t ShardOf(VertexId v) const { return manifest_.ShardOf(v); }

  /// Pins shard `s` resident and returns a view on it. The only failure
  /// mode after a clean Open() is the file changing on disk underneath us.
  Result<ShardView> Shard(uint32_t s);

  /// Graph-compatible point accessors. The returned span stays valid until
  /// the next access that touches a different shard (for longer, hold the
  /// ShardView). CHECK-fails if the shard load fails — use Shard() where
  /// I/O errors must be recoverable.
  size_t Degree(VertexId v);
  std::span<const VertexId> Neighbors(VertexId v);

  /// Visits every undirected edge as fn(u, v) with u < v, in lexicographic
  /// order — the same order Graph::ForEachEdge yields — streaming shards in
  /// range order so each is touched once.
  template <typename Fn>
  void ForEachEdge(Fn&& fn) {
    for (uint32_t s = 0; s < NumShards(); ++s) {
      const Result<ShardView> view = Shard(s);
      KSYM_CHECK(view.ok());
      for (VertexId u = view->begin(); u < view->end(); ++u) {
        const std::span<const VertexId> adj = view->Neighbors(u);
        // Forward neighbours (> u) are the suffix past upper_bound.
        const auto it = std::upper_bound(adj.begin(), adj.end(), u);
        for (auto i = it; i != adj.end(); ++i) fn(u, *i);
      }
    }
  }

  const ShardResidencyStats& stats() const { return stats_; }
  const ShardedGraphOptions& options() const { return options_; }

 private:
  ShardedGraph() = default;

  /// Loads (or re-finds) shard `s`, updates the LRU order, and evicts past
  /// the cap — never the shard just requested.
  Result<std::shared_ptr<const ResidentShard>> Ensure(uint32_t s);

  /// Point-access fast path: repins `current_` if `v` lies outside it.
  const ResidentShard* Touch(VertexId v);

  std::string manifest_path_;
  ShardManifest manifest_;
  ShardedGraphOptions options_;
  ShardResidencyStats stats_;

  /// resident_[s] is null when shard s is not cached. lru_ holds the
  /// resident shard ids, most recently used first.
  std::vector<std::shared_ptr<const ResidentShard>> resident_;
  std::list<uint32_t> lru_;

  /// Pin for the last point access, so Degree/Neighbors spans survive
  /// eviction of their shard until the next cross-shard access.
  std::shared_ptr<const ResidentShard> current_;
};

}  // namespace ksym

#endif  // KSYM_SHARD_SHARDED_GRAPH_H_
