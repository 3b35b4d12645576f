// The k-symmetry anonymization procedure (Algorithm 1) and its f-symmetry
// generalization (Definition 5, Section 5.2).
//
// Given a graph G and its automorphism partition Orb(G), each orbit smaller
// than its requirement f(orbit) is copied until the orbit together with its
// copies reaches the requirement. The output triple (G', V', |V(G)|) is
// exactly what the paper publishes: the anonymized graph, its
// sub-automorphism partition, and the original vertex count (used by the
// sampling algorithms to size their output).

#ifndef KSYM_KSYM_ANONYMIZER_H_
#define KSYM_KSYM_ANONYMIZER_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "aut/orbits.h"
#include "common/parallel.h"
#include "common/status.h"
#include "graph/graph.h"
#include "ksym/orbit_copy.h"
#include "ksym/partition.h"

namespace ksym {

/// Per-orbit anonymity requirement: given the orbit's members and the shared
/// degree of its vertices, returns the minimum size the augmented cell must
/// reach. Returning 1 excludes the orbit from protection.
using SymmetryRequirement = std::function<uint32_t(
    const std::vector<VertexId>& orbit, size_t degree)>;

/// The constant-k requirement of the basic model.
SymmetryRequirement KSymmetryRequirement(uint32_t k);

/// The hub-exclusion requirement of Section 5.2: orbits whose vertices have
/// degree > degree_threshold map to 1 (unprotected); all others to k.
SymmetryRequirement HubExclusionRequirement(uint32_t k,
                                            size_t degree_threshold);

/// Helper for the Figure 10/11 sweeps: the degree threshold that excludes
/// (approximately) the top `fraction` of vertices by descending degree.
/// fraction <= 0 excludes nothing (returns SIZE_MAX); fraction >= 1
/// excludes every vertex. Requires a fraction that is not NaN.
size_t DegreeThresholdForExcludedFraction(const Graph& graph, double fraction);

/// Same computation from a bare degree array — the out-of-core pipeline has
/// the degrees (one streaming pass) but never the resident Graph.
size_t DegreeThresholdForExcludedFraction(std::span<const size_t> degrees,
                                          double fraction);

struct AnonymizationOptions {
  uint32_t k = 2;
  /// If set, overrides k with a general f-symmetry requirement.
  SymmetryRequirement requirement;
  /// Use TDV(G) instead of the exact Orb(G) as the initial partition
  /// (Section 7's scalable approximation; valid whenever TDV(G) = Orb(G),
  /// which the paper reports for all their real networks).
  bool use_total_degree_partition = false;
  /// Execution policy for the partition computation and the pipeline's
  /// phase timers. nullptr = sequential; the result's RefinementStats are
  /// then scoped to this call. With a caller-owned context, the stats
  /// accumulate into (and the result snapshot includes) that context.
  const ExecutionContext* context = nullptr;
};

/// Cost accounting of one Algorithm 1 run (Figure 10 and the complexity
/// discussion of Section 3.3), shared by every anonymizer's result.
struct CopyCounts {
  size_t vertices_added = 0;
  size_t edges_added = 0;
  size_t copy_operations = 0;
  size_t orbits_copied = 0;
  size_t orbits_excluded = 0;   // Requirement 1 (hub exclusion).
  size_t orbits_satisfied = 0;  // Already >= requirement, nothing to do.
};

struct AnonymizationResult : CopyCounts {
  /// The anonymized graph G' (a supergraph of G: original ids unchanged).
  Graph graph;
  /// The released sub-automorphism partition V' of G'.
  VertexPartition partition;
  /// |V(G)| — released alongside G' for the sampling algorithms.
  size_t original_vertices = 0;

  /// Refinement-pipeline cost accounting, populated from the execution
  /// context's timers (refine calls, cells split, wall time per phase) so
  /// callers stop re-deriving cost from scratch.
  RefinementStats refinement;

  /// Trace hash of the initial-partition refinement when the TDV path ran
  /// (0 for the exact-orbit path, whose search performs many refines). The
  /// sharded pipeline must reproduce this bit-exactly.
  uint64_t refinement_trace = 0;
};

/// Algorithm 1, the one per-cell walk every anonymizer runs: for each cell
/// of `initial`, evaluates the requirement on the cell and the degree
/// `degree_of(v)` of its first member, and applies orbit copying with
/// `unit_of(cell)` (a sorted, intra-cell closed set of the cell's original
/// members) until the augmented cell of `partition` reaches it. The graph
/// grows as `base` + `delta`; `partition` must start as `initial`. The walk
/// is timed as RefinementStats::copy_seconds on `context` (if non-null).
template <typename Base, typename DegreeOf, typename UnitOf>
CopyCounts CopyToRequirement(Base& base, const VertexPartition& initial,
                             const SymmetryRequirement& requirement,
                             DegreeOf&& degree_of, UnitOf&& unit_of,
                             const ExecutionContext* context,
                             ReleaseDelta& delta,
                             TrackedPartition& partition) {
  ScopedPhaseTimer copy_timer(context, &RefinementStats::copy_seconds);
  CopyCounts counts;
  for (uint32_t cell = 0; cell < initial.cells.size(); ++cell) {
    // The vertices of one orbit all share the same degree, so any member's
    // degree represents the orbit.
    const std::vector<VertexId>& orbit = initial.cells[cell];
    const uint32_t required = requirement(orbit, degree_of(orbit.front()));
    if (required <= 1) {
      ++counts.orbits_excluded;
      continue;
    }
    if (partition.Cell(cell).size() >= required) {
      ++counts.orbits_satisfied;
      continue;
    }
    ++counts.orbits_copied;
    const auto& unit = unit_of(cell);
    while (partition.Cell(cell).size() < required) {
      const size_t edges_before = delta.added_edges();
      OrbitCopy(base, delta, partition, cell, std::span<const VertexId>(unit));
      ++counts.copy_operations;
      counts.vertices_added += unit.size();
      counts.edges_added += delta.added_edges() - edges_before;
    }
  }
  return counts;
}

/// Anonymizes `graph` to satisfy the requirement (k-symmetry by default).
/// Computes the initial partition internally.
Result<AnonymizationResult> Anonymize(const Graph& graph,
                                      const AnonymizationOptions& options);

/// As above but with a caller-supplied initial sub-automorphism partition
/// (Algorithm 1's actual signature). The caller is responsible for the
/// partition really being a sub-automorphism partition of `graph`.
Result<AnonymizationResult> AnonymizeWithPartition(
    const Graph& graph, const VertexPartition& initial,
    const AnonymizationOptions& options);

/// AnonymizeWithPartition with a caller-chosen copy unit per cell:
/// `unit_of(cell)` returns the sorted, intra-cell closed subset of the
/// cell's original members that each orbit copying operation duplicates.
/// AnonymizeWithPartition copies whole cells; AnonymizeMinimalVertices
/// (minimal.h) copies one L(V)-copy component.
Result<AnonymizationResult> AnonymizeWithCopyUnits(
    const Graph& graph, const VertexPartition& initial,
    const AnonymizationOptions& options,
    const std::function<std::vector<VertexId>(uint32_t cell)>& unit_of);

}  // namespace ksym

#endif  // KSYM_KSYM_ANONYMIZER_H_
