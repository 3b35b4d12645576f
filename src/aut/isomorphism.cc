#include "aut/isomorphism.h"

#include <algorithm>
#include <limits>

#include "aut/search.h"

namespace ksym {
namespace {

// Multiset of (color, degree) pairs — a cheap isomorphism invariant.
std::vector<std::pair<uint32_t, uint32_t>> ColorDegreeProfile(
    const Graph& graph, const std::vector<uint32_t>& colors) {
  std::vector<std::pair<uint32_t, uint32_t>> profile;
  profile.reserve(graph.NumVertices());
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    const uint32_t color = colors.empty() ? 0 : colors[v];
    profile.emplace_back(color, static_cast<uint32_t>(graph.Degree(v)));
  }
  std::sort(profile.begin(), profile.end());
  return profile;
}

}  // namespace

bool AreIsomorphic(const Graph& a, const Graph& b,
                   const std::vector<uint32_t>& colors_a,
                   const std::vector<uint32_t>& colors_b) {
  KSYM_CHECK(colors_a.empty() || colors_a.size() == a.NumVertices());
  KSYM_CHECK(colors_b.empty() || colors_b.size() == b.NumVertices());
  KSYM_CHECK(colors_a.empty() == colors_b.empty());

  if (a.NumVertices() != b.NumVertices()) return false;
  if (a.NumEdges() != b.NumEdges()) return false;
  if (ColorDegreeProfile(a, colors_a) != ColorDegreeProfile(b, colors_b)) {
    return false;
  }

  // (A + apex_a) ⊔ (B + apex_b): each apex is joined to its whole side and
  // is the only vertex of colour 0, so an automorphism maps apex_a to
  // apex_b exactly when it restricts to a colour-preserving A -> B
  // isomorphism (DESIGN.md §7, "Isomorphism as an orbit question").
  const VertexId n = static_cast<VertexId>(a.NumVertices());
  const VertexId apex_a = n;
  const VertexId apex_b = 2 * n + 1;
  GraphBuilder builder(2 * n + 2);
  std::vector<uint32_t> colors(2 * n + 2, 1);
  colors[apex_a] = 0;
  colors[apex_b] = 0;
  for (VertexId v = 0; v < n; ++v) {
    builder.AddEdge(v, apex_a);
    builder.AddEdge(apex_a + 1 + v, apex_b);
    if (!colors_a.empty()) {
      KSYM_CHECK(colors_a[v] < std::numeric_limits<uint32_t>::max());
      KSYM_CHECK(colors_b[v] < std::numeric_limits<uint32_t>::max());
      colors[v] = colors_a[v] + 1;
      colors[apex_a + 1 + v] = colors_b[v] + 1;
    }
  }
  a.ForEachEdge([&builder](VertexId u, VertexId v) { builder.AddEdge(u, v); });
  b.ForEachEdge([&builder, apex_a](VertexId u, VertexId v) {
    builder.AddEdge(apex_a + 1 + u, apex_a + 1 + v);
  });
  const std::vector<VertexId> orbit_rep =
      ComputeOrbitRepresentatives(builder.Build(), colors, nullptr);
  return orbit_rep[apex_a] == orbit_rep[apex_b];
}

}  // namespace ksym
