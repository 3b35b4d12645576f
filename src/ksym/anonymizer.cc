#include "ksym/anonymizer.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace ksym {

SymmetryRequirement KSymmetryRequirement(uint32_t k) {
  return [k](const std::vector<VertexId>&, size_t) { return k; };
}

SymmetryRequirement HubExclusionRequirement(uint32_t k,
                                            size_t degree_threshold) {
  return [k, degree_threshold](const std::vector<VertexId>&, size_t degree) {
    return degree > degree_threshold ? 1u : k;
  };
}

size_t DegreeThresholdForExcludedFraction(const Graph& graph,
                                          double fraction) {
  return DegreeThresholdForExcludedFraction(
      std::span<const size_t>(graph.Degrees()), fraction);
}

size_t DegreeThresholdForExcludedFraction(std::span<const size_t> degrees,
                                          double fraction) {
  KSYM_CHECK(!std::isnan(fraction));
  if (fraction <= 0.0 || degrees.empty()) {
    return std::numeric_limits<size_t>::max();
  }
  std::vector<size_t> sorted(degrees.begin(), degrees.end());
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  // Clamp before the cast: a fraction past 1 excludes every vertex.
  const size_t num_excluded = static_cast<size_t>(
      std::min(fraction, 1.0) * static_cast<double>(degrees.size()));
  if (num_excluded == 0) return std::numeric_limits<size_t>::max();
  // Exclude exactly the vertices with degree strictly above the cutoff.
  return sorted[num_excluded - 1] == 0 ? 0 : sorted[num_excluded - 1] - 1;
}

Result<AnonymizationResult> Anonymize(const Graph& graph,
                                      const AnonymizationOptions& options) {
  // With no caller context, a local one still collects this call's stats
  // (it outlives the nested AnonymizeWithPartition call below).
  ExecutionContext local_context;
  AnonymizationOptions resolved = options;
  if (resolved.context == nullptr) resolved.context = &local_context;

  VertexPartition initial;
  uint64_t trace = 0;
  {
    ScopedPhaseTimer timer(resolved.context,
                           &RefinementStats::partition_seconds);
    initial = options.use_total_degree_partition
                  ? ComputeTotalDegreePartition(graph, resolved.context, &trace)
                  : ComputeAutomorphismPartition(graph, {}, resolved.context);
  }
  Result<AnonymizationResult> result =
      AnonymizeWithPartition(graph, initial, resolved);
  if (result.ok()) result->refinement_trace = trace;
  return result;
}

Result<AnonymizationResult> AnonymizeWithPartition(
    const Graph& graph, const VertexPartition& initial,
    const AnonymizationOptions& options) {
  return AnonymizeWithCopyUnits(
      graph, initial, options,
      [&initial](uint32_t cell) { return initial.cells[cell]; });
}

Result<AnonymizationResult> AnonymizeWithCopyUnits(
    const Graph& graph, const VertexPartition& initial,
    const AnonymizationOptions& options,
    const std::function<std::vector<VertexId>(uint32_t cell)>& unit_of) {
  if (!options.requirement && options.k < 1) {
    return Status::InvalidArgument("k must be >= 1");
  }
  if (initial.cell_of.size() != graph.NumVertices()) {
    return Status::InvalidArgument(
        "initial partition does not match the graph");
  }
  const SymmetryRequirement requirement =
      options.requirement ? options.requirement
                          : KSymmetryRequirement(options.k);

  ExecutionContext local_context;
  const ExecutionContext* context =
      options.context != nullptr ? options.context : &local_context;

  ReleaseDelta delta(graph.NumVertices());
  TrackedPartition partition(initial);
  AnonymizationResult result;
  static_cast<CopyCounts&>(result) = CopyToRequirement(
      graph, initial, requirement,
      [&graph](VertexId v) { return graph.Degree(v); }, unit_of, context,
      delta, partition);
  result.graph = ReleasedGraph(graph, delta);
  result.partition = partition.ToVertexPartition();
  result.original_vertices = graph.NumVertices();
  result.refinement = context->stats();
  return result;
}

}  // namespace ksym
