// Graph backbone detection — Algorithm 2 and Section 4.1 of the paper.
//
// The backbone B_{G,V} is the least element of the reduction lattice
// (Theorem 3): the smallest graph from which (G, V) can be regrown by orbit
// copying operations. Detection inverts orbit copying: inside each cell V,
// the induced subgraph G[V] decomposes into connected components; a
// component that is isomorphic to another *under the L(V) constraint*
// (matched vertices must share the same neighbourhood outside V — Section
// 4.2.2) is an orbit-copy and is removed. We encode the L(V) constraint as
// vertex colours (one colour per distinct external neighbourhood) and ask
// one orbit question per cell: the automorphisms of the coloured G[V] map
// components onto components, so two components are copies iff they share
// an orbit (DESIGN.md §7, "Isomorphism as an orbit question").
//
// The pass repeats until no component can be removed, which on graphs
// actually produced by orbit copying reaches the unique least element
// (Theorems 3-4 guarantee order-independence).

#ifndef KSYM_KSYM_BACKBONE_H_
#define KSYM_KSYM_BACKBONE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "aut/orbits.h"
#include "common/parallel.h"
#include "graph/graph.h"

namespace ksym {

struct BackboneResult {
  /// The backbone graph B_{G,V} with dense ids.
  Graph graph;
  /// The partition V restricted to the backbone (cells remapped).
  VertexPartition partition;
  /// kept[i] = vertex of the input graph that backbone vertex i represents.
  std::vector<VertexId> kept;
  /// Number of vertices removed as orbit-copies.
  size_t removed_vertices = 0;
  /// Number of component-level reduction operations applied.
  size_t reduction_operations = 0;
};

/// One cell's induced subgraph split into connected components, grouped
/// into L(V)-copy classes.
struct CellComponents {
  /// Per component, its sorted members; components by least member.
  std::vector<std::vector<VertexId>> members;
  /// copy_of[c]: the least component that component c is an L(V)-copy of
  /// (c itself when no earlier one is); empty when there is one component.
  std::vector<uint32_t> copy_of;
};

/// Splits the sorted `members` of partition cell `cell` and classifies the
/// components by one orbit partition of G[members] coloured by L(V) (one
/// colour per distinct external neighbourhood). Vertices with alive[v]
/// false are ignored as neighbours (empty `alive`: none is).
CellComponents SplitCell(const Graph& graph, const VertexPartition& partition,
                         uint32_t cell, std::span<const VertexId> members,
                         const std::vector<bool>& alive);

/// Computes the backbone of (graph, partition) on `context`'s execution
/// policy (currently: the pass is timed into the context's
/// RefinementStats::backbone_seconds; the reduction itself is inherently
/// sequential — each removal changes the L(V) colours of the survivors).
/// `partition` must be a sub-automorphism partition of `graph` (e.g.
/// Orb(G), or the released V' of an anonymized graph).
BackboneResult ComputeBackbone(const Graph& graph,
                               const VertexPartition& partition,
                               const ExecutionContext* context);

}  // namespace ksym

#endif  // KSYM_KSYM_BACKBONE_H_
