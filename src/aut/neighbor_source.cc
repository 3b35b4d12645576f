#include "aut/neighbor_source.h"

namespace ksym {

void CsrNeighborSource::CountSplitter(std::span<const VertexId> splitter,
                                      std::span<uint32_t> count,
                                      std::vector<VertexId>& touched) {
  for (VertexId u : splitter) {
    for (VertexId v : graph_.Neighbors(u)) {
      if (count[v]++ == 0) touched.push_back(v);
    }
  }
}

}  // namespace ksym
