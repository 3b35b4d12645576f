#include "ksym/minimal.h"

#include "ksym/backbone.h"

namespace ksym {
namespace {

// Returns the smallest legal copy unit for `cell`: one connected component
// of the cell-induced subgraph if all components are mutual L(V)-copies,
// otherwise the whole cell.
std::vector<VertexId> MinimalCopyUnit(const Graph& graph,
                                      const VertexPartition& partition,
                                      uint32_t cell) {
  const std::vector<VertexId>& members = partition.cells[cell];
  const CellComponents split = SplitCell(graph, partition, cell, members, {});
  if (split.members.size() <= 1) return members;

  for (uint32_t copy_of : split.copy_of) {
    // Not all components are mutual copies; copying one of them would
    // break symmetry between the others. Fall back to the whole cell.
    if (copy_of != 0) return members;
  }
  return split.members[0];
}

}  // namespace

Result<AnonymizationResult> AnonymizeMinimalVertices(
    const Graph& graph, const VertexPartition& initial,
    const AnonymizationOptions& options) {
  return AnonymizeWithCopyUnits(
      graph, initial, options, [&graph, &initial](uint32_t cell) {
        return MinimalCopyUnit(graph, initial, cell);
      });
}

Result<AnonymizationResult> AnonymizeMinimalVertices(
    const Graph& graph, const AnonymizationOptions& options) {
  ExecutionContext local_context;
  AnonymizationOptions resolved = options;
  if (resolved.context == nullptr) resolved.context = &local_context;

  VertexPartition initial;
  {
    ScopedPhaseTimer timer(resolved.context,
                           &RefinementStats::partition_seconds);
    initial = options.use_total_degree_partition
                  ? ComputeTotalDegreePartition(graph, resolved.context)
                  : ComputeAutomorphismPartition(graph, {}, resolved.context);
  }
  return AnonymizeMinimalVertices(graph, initial, resolved);
}

}  // namespace ksym
