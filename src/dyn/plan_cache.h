// PlanCache: checksum-keyed memoization of expensive anonymization
// artifacts (DESIGN.md §15).
//
// The GraphCache (serve/cache.h) caches *inputs* — mmapped bytes keyed by
// file header checksum. The PlanCache caches *derived work* keyed by graph
// content checksum (DeltaGraph::ContentChecksum / GraphContentChecksum):
//
//   * plans    — the TDV partition + its refinement trace hash, keyed by
//                checksum alone. A plan is what the incremental repair
//                consumes: a mutated graph's repair starts from the
//                *parent* checksum's cached plan (delta-aware reuse), and
//                the repaired partition is inserted under the child
//                checksum so the chain extends.
//   * releases — the anonymized ReleaseTriple, keyed by (checksum, k). A
//                warm release entry turns a repeated `reanonymize` of an
//                unchanged graph into a pure lookup: no refinement, no
//                orbit copy (pinned by dyn_test via refine_calls == 0).
//
// Keying by content checksum follows the GraphCache discipline: two
// sessions (or a compaction) reaching the same logical graph share
// entries, and any mutation is a new key, never a stale hit. Same LRU
// too: both caches sit on common/lru_cache.h (byte-budget eviction,
// shared_ptr pinning, the just-inserted entry always admitted, racing
// inserts keep the incumbent).

#ifndef KSYM_DYN_PLAN_CACHE_H_
#define KSYM_DYN_PLAN_CACHE_H_

#include <cstdint>
#include <memory>

#include "aut/orbits.h"
#include "common/lru_cache.h"
#include "ksym/release_io.h"

namespace ksym {
namespace dyn {

/// A memoized refinement outcome for one graph content checksum.
struct CachedPlan {
  VertexPartition tdv;
  uint64_t partition_checksum = 0;  // PartitionChecksum(tdv).
  /// Full-refine trace hash when the plan came from a from-scratch
  /// refinement; 0 when it came from incremental repair (the repair
  /// schedule's hash is not comparable — the contract is
  /// partition_checksum, see dyn/repair.h).
  uint64_t trace_hash = 0;
};

class PlanCache {
 public:
  explicit PlanCache(size_t max_bytes) : lru_(max_bytes) {}

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Plan lookup by graph content checksum; nullptr on miss.
  std::shared_ptr<const CachedPlan> GetPlan(uint64_t graph_checksum);

  /// Inserts a plan (or returns a racing incumbent). The returned pointer
  /// is the entry to use either way.
  std::shared_ptr<const CachedPlan> PutPlan(uint64_t graph_checksum,
                                            CachedPlan plan);

  /// Release lookup by (graph content checksum, k); nullptr on miss.
  std::shared_ptr<const ReleaseTriple> GetRelease(uint64_t graph_checksum,
                                                  uint32_t k);

  std::shared_ptr<const ReleaseTriple> PutRelease(uint64_t graph_checksum,
                                                  uint32_t k,
                                                  ReleaseTriple release);

  CacheStats stats() const { return lru_.stats(); }
  size_t max_bytes() const { return lru_.max_bytes(); }

 private:
  LruCache lru_;  // Keys: 'p' plans, 'r' releases (param = k).
};

}  // namespace dyn
}  // namespace ksym

#endif  // KSYM_DYN_PLAN_CACHE_H_
