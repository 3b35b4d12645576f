#include "ksym/orbit_copy.h"

namespace ksym {

Graph ReleasedGraph(const Graph& base, const ReleaseDelta& delta) {
  KSYM_CHECK(base.NumVertices() == delta.base_vertices());
  const size_t n = delta.NumVertices();
  std::vector<EdgeIndex> offsets;
  offsets.reserve(n + 1);
  offsets.push_back(0);
  std::vector<VertexId> neighbors;
  neighbors.reserve(2 * (base.NumEdges() + delta.added_edges()));
  for (size_t v = 0; v < n; ++v) {
    AppendReleasedRow(base, delta, static_cast<VertexId>(v), neighbors);
    offsets.push_back(neighbors.size());
  }
  return Graph::FromCsr(std::move(offsets), std::move(neighbors));
}

}  // namespace ksym
