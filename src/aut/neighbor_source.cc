#include "aut/neighbor_source.h"

#include "simd/simd.h"
#include "simd/splitter.h"

namespace ksym {

// Dense-splitter fast path (DESIGN.md §13): when the splitter's edge mass
// clears the density gate, compute the same counts from the target side —
// count[v] += |N(v) ∩ splitter-bitmap| — with the vectorized bitset kernel.
// Both directions perform the same multiset of increments (u ∈ splitter is
// adjacent to v iff v's sorted list contains u), so counts and therefore
// splits and trace hashes are identical; only the touched *order* changes
// (ascending v), which the refiner sorts away by contract. At
// kScalar the verbatim loops below run unchanged, keeping a true baseline.
bool CsrNeighborSource::PrepareDenseSplitter(
    std::span<const VertexId> splitter) {
  if (simd::ActiveSimdLevel() == simd::SimdLevel::kScalar) return false;
  size_t splitter_arcs = 0;
  for (VertexId u : splitter) splitter_arcs += graph_.Degree(u);
  const size_t n = graph_.NumVertices();
  if (!simd::PreferBitsetSplitter(splitter_arcs, n,
                                  2 * graph_.NumEdges())) {
    return false;
  }
  splitter_bits_.assign((n + 63) / 64, 0);
  for (VertexId u : splitter) {
    splitter_bits_[u >> 6] |= uint64_t{1} << (u & 63);
  }
  return true;
}

void CsrNeighborSource::CountSplitter(std::span<const VertexId> splitter,
                                      std::span<uint32_t> count,
                                      std::vector<VertexId>& touched) {
  if (PrepareDenseSplitter(splitter)) {
    const simd::SimdLevel simd_level = simd::ActiveSimdLevel();
    const size_t n = graph_.NumVertices();
    for (VertexId v = 0; v < n; ++v) {
      const auto nv = graph_.Neighbors(v);
      const uint64_t hits = simd::CountBitsetHits(simd_level, nv.data(),
                                                  nv.size(),
                                                  splitter_bits_.data());
      if (hits != 0) {
        if (count[v] == 0) touched.push_back(v);
        count[v] += static_cast<uint32_t>(hits);
      }
    }
    simd::AddSimdCalls(simd::SimdKernel::kSplitterDense, 1);
    return;
  }
  for (VertexId u : splitter) {
    for (VertexId v : graph_.Neighbors(u)) {
      if (count[v]++ == 0) touched.push_back(v);
    }
  }
  simd::AddSimdCalls(simd::SimdKernel::kSplitterScalar, 1);
}

}  // namespace ksym
