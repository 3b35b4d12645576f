// Colour-preserving graph isomorphism as an orbit question.
//
// Backbone detection (Algorithm 2 of the paper) and the neighbourhood
// measure of Section 2.2 both ask whether two graphs are isomorphic. A ≅ B
// exactly when, in the disjoint union of A and B each joined to an apex of
// a colour of its own, the two apexes share an orbit — so the test is one
// call of the automorphism search (aut/search.h); there is no separate
// canonical-labelling engine.

#ifndef KSYM_AUT_ISOMORPHISM_H_
#define KSYM_AUT_ISOMORPHISM_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace ksym {

/// Colour-preserving isomorphism test. Colour values must be consistent
/// across the two graphs (same value = same colour). Empty colour vectors
/// mean uncoloured. Runs cheap invariant pre-checks (sizes, degree and
/// colour profiles) before the orbit partition of the apexed union.
bool AreIsomorphic(const Graph& a, const Graph& b,
                   const std::vector<uint32_t>& colors_a = {},
                   const std::vector<uint32_t>& colors_b = {});

}  // namespace ksym

#endif  // KSYM_AUT_ISOMORPHISM_H_
