#include "ksym/sharded_anonymizer.h"

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "ksym/partition.h"
#include "ksym/release_io.h"
#include "shard/partitioner.h"
#include "shard/refine.h"

namespace ksym {

Result<ShardedAnonymizationResult> AnonymizeSharded(
    ShardedGraph& graph, const ShardedAnonymizationOptions& options,
    const std::string& output_prefix) {
  if (!options.requirement && options.k < 1) {
    return Status::InvalidArgument("k must be >= 1");
  }
  ExecutionContext local_context;
  const ExecutionContext* context =
      options.context != nullptr ? options.context : &local_context;

  const size_t n = graph.NumVertices();
  ShardedAnonymizationResult result;
  result.original_vertices = n;

  // Streaming degree pass: the one whole-graph reduction the requirement
  // functions need, O(n) resident.
  std::vector<size_t> degrees(n);
  for (uint32_t s = 0; s < graph.NumShards(); ++s) {
    const Result<ShardView> view = graph.Shard(s);
    KSYM_CHECK(view.ok());
    for (VertexId v = view->begin(); v < view->end(); ++v) {
      degrees[v] = view->Degree(v);
    }
  }
  SymmetryRequirement requirement = options.requirement;
  if (!requirement && options.exclude_hubs_fraction > 0.0) {
    requirement = HubExclusionRequirement(
        options.k, DegreeThresholdForExcludedFraction(
                       degrees, options.exclude_hubs_fraction));
  }
  if (!requirement) requirement = KSymmetryRequirement(options.k);

  // Initial partition: TDV(G) through the sharded refinement seam.
  VertexPartition initial;
  {
    ScopedPhaseTimer timer(context, &RefinementStats::partition_seconds);
    initial =
        ShardedTotalDegreePartition(graph, context, &result.refinement_trace);
  }

  // Algorithm 1 against (base shard set + delta): the original edge
  // arrays stay on disk.
  ReleaseDelta delta(n);
  TrackedPartition partition(initial);
  static_cast<CopyCounts&>(result) = CopyToRequirement(
      graph, initial, requirement, [&degrees](VertexId v) { return degrees[v]; },
      [&initial](uint32_t cell) -> const std::vector<VertexId>& {
        return initial.cells[cell];
      },
      context, delta, partition);

  // Stream the released graph out as balanced vertex ranges, row by row in
  // the same layout as the in-memory release (AppendReleasedRow). Ranges
  // ascend, so the base shards stream through residency once more.
  const size_t released_n = delta.NumVertices();
  const VertexPartition released = partition.ToVertexPartition();
  const std::vector<uint64_t> labels = ReleaseCsrLabels(released, n);

  const uint32_t output_shards =
      options.output_shards > 0 ? options.output_shards : graph.NumShards();
  const size_t chunk = (released_n + output_shards - 1) / output_shards;

  ShardSetWriter writer(output_prefix, released_n);
  std::vector<EdgeIndex> local_offsets;
  std::vector<VertexId> range_neighbors;
  for (size_t begin = 0; begin < released_n; begin += chunk) {
    const size_t end = std::min(released_n, begin + chunk);
    local_offsets.assign(1, 0);
    range_neighbors.clear();
    for (size_t v = begin; v < end; ++v) {
      AppendReleasedRow(graph, delta, static_cast<VertexId>(v),
                        range_neighbors);
      local_offsets.push_back(range_neighbors.size());
    }
    KSYM_RETURN_IF_ERROR(writer.AppendShard(
        static_cast<VertexId>(begin), static_cast<VertexId>(end),
        local_offsets, range_neighbors,
        std::span<const uint64_t>(labels).subspan(begin, end - begin)));
  }
  KSYM_ASSIGN_OR_RETURN(result.manifest, writer.Finish());

  result.released_vertices = released_n;
  result.released_edges = graph.NumEdges() + delta.added_edges();
  result.refinement = context->stats();
  result.residency = graph.stats();
  return result;
}

}  // namespace ksym
