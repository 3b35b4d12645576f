// Out-of-core equitable refinement: the ShardedGraph implementation of the
// refiner's neighbor-access seam, plus sharded drop-in replacements for
// EquitablePartition / ComputeTotalDegreePartition (DESIGN.md §11).
//
// The refiner keeps all O(n) vertex state (counts, partition arrays,
// worklists) resident and reaches the O(2|E|) edge arrays only through
// NeighborSource::CountSplitter. ShardedNeighborSource serves that pass
// shard-by-shard: it buckets the splitter's members by owning storage
// shard, then processes the storage shards in ascending range order,
// pinning each exactly once per splitter — so a full refinement streams
// the edge set under the residency budget instead of holding it.
//
// Bit-identity argument (the §11 determinism argument in brief): counts are
// commutative sums of per-edge contributions, so regrouping the splitter by
// storage shard performs the same multiset of increments as the in-memory
// pass; touched-list discovery order differs, but the refiner orders each
// cell's touched members by (count, vertex id) before anything
// order-sensitive happens. Every split and every trace hash fold lives
// above the seam, untouched. Hence the final partition and the refinement
// trace hash are bit-identical to the in-memory run at any shard count,
// thread count, and residency budget — pinned by sharded_refinement_test
// across 1/2/4 shards x 1/2/4 threads x budgets.
//
// Like every sharded kernel, the source takes the graph by mutable
// reference (loading shards mutates the residency cache) and CHECKs on
// shard-load failure: ShardedGraph::Open already validated the manifest
// and every shard header, so a failure here means the files changed on
// disk mid-computation.

#ifndef KSYM_SHARD_REFINE_H_
#define KSYM_SHARD_REFINE_H_

#include <cstdint>
#include <vector>

#include "aut/neighbor_source.h"
#include "aut/orbits.h"
#include "aut/refinement.h"
#include "shard/sharded_graph.h"

namespace ksym {

class ShardedNeighborSource final : public NeighborSource {
 public:
  explicit ShardedNeighborSource(ShardedGraph& graph);

  size_t NumVertices() const override { return graph_.NumVertices(); }

  void CountSplitter(std::span<const VertexId> splitter,
                     std::span<uint32_t> count,
                     std::vector<VertexId>& touched) override;

 private:
  /// Buckets the splitter's members into groups_[s] by owning storage
  /// shard. Splitter members arrive in partition order, not id order, so
  /// this is a bucket pass, not a range split.
  void GroupByShard(std::span<const VertexId> splitter);

  ShardedGraph& graph_;
  std::vector<std::vector<VertexId>> groups_;  // One bucket per storage shard.
};

/// EquitablePartition over a shard set: identical cells (and trace hash,
/// via options.trace_hash) to EquitablePartition on the merged graph.
std::vector<std::vector<VertexId>> ShardedEquitablePartition(
    ShardedGraph& graph, const RefinementOptions& options);

/// ComputeTotalDegreePartition over a shard set: TDV(G) without ever
/// materializing G. == ComputeTotalDegreePartition on the merged graph.
VertexPartition ShardedTotalDegreePartition(ShardedGraph& graph,
                                            const ExecutionContext* context,
                                            uint64_t* trace_hash = nullptr);

}  // namespace ksym

#endif  // KSYM_SHARD_REFINE_H_
