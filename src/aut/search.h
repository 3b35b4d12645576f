// Automorphism group computation by individualization-refinement.
//
// ComputeAutomorphisms first collapses twins. Vertices with the same colour
// and the same open neighbourhood N(v), or the same closed neighbourhood
// N[v], form twin classes; every permutation inside a class is an
// automorphism, and every automorphism maps classes to classes. The search
// runs on the twin quotient Q — one vertex per class, coloured by (input
// colour, twin type, class size) — and its results are lifted back to G
// (DESIGN.md §7, "Automorphism search: twin quotient and leaf certificate").
//
// On Q it runs a McKay-style backtracking search over ordered partitions:
// refine to an equitable partition, pick an (invariant) target cell,
// individualize each of its vertices in turn, recurse. Every leaf is a
// discrete partition, i.e. a labelling lab of the graph; a leaf for which
// g = lab · first⁻¹ is an automorphism yields the generator g (this is how
// nauty, which the paper uses, discovers generators). The leaf check costs
// O(n + m): g must map every edge to an edge.
//
// Pruning, without which k-symmetric graphs (enormous groups) would be
// intractable:
//   * invariant pruning — a child whose refinement trace differs from the
//     first path's trace at the same depth cannot lead to a leaf equal to
//     the first leaf;
//   * orbit pruning — siblings in the same orbit of the subgroup fixing the
//     current branch prefix generate equivalent subtrees; only one is
//     explored;
//   * backjumping — once a subtree off the first path yields an
//     automorphism, its remaining siblings inside that subtree are
//     redundant.
//
// The returned generators generate Aut(G) (respecting `colors` if given):
// the lifts of Q's generators plus the adjacent transpositions of every
// twin class. orbit_rep is the automorphism partition Orb(G) in
// representative form.

#ifndef KSYM_AUT_SEARCH_H_
#define KSYM_AUT_SEARCH_H_

#include <cstdint>
#include <vector>

#include "common/parallel.h"
#include "graph/graph.h"
#include "perm/permutation.h"

namespace ksym {

struct AutomorphismResult {
  /// Generators of Aut(G) (colour-preserving if colours were supplied).
  std::vector<Permutation> generators;
  /// orbit_rep[v] = minimum vertex of v's orbit under <generators>.
  std::vector<VertexId> orbit_rep;
  /// Search-tree nodes visited (diagnostics). The search runs on the twin
  /// quotient, so these are nodes of the quotient's search tree.
  uint64_t nodes = 0;
};

/// Computes Aut(G). The search is sequential (a depth-first backtrack over
/// one shared partition); `context`, if non-null, collects the refinement
/// stats and timers. If `colors` is non-empty (size n), only
/// colour-preserving automorphisms are considered.
AutomorphismResult ComputeAutomorphisms(const Graph& graph,
                                        const std::vector<uint32_t>& colors,
                                        const ExecutionContext* context);

/// ComputeAutomorphisms(...).orbit_rep without lifting the generators to G:
/// the answer to every orbit question, at the cost of the quotient search
/// alone (no n-entry permutation per generator or twin transposition).
std::vector<VertexId> ComputeOrbitRepresentatives(
    const Graph& graph, const std::vector<uint32_t>& colors,
    const ExecutionContext* context);

}  // namespace ksym

#endif  // KSYM_AUT_SEARCH_H_
