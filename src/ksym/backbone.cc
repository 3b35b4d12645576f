#include "ksym/backbone.h"

#include <algorithm>
#include <map>
#include <utility>

#include "aut/search.h"
#include "graph/algorithms.h"

namespace ksym {

CellComponents SplitCell(const Graph& graph, const VertexPartition& partition,
                         uint32_t cell, std::span<const VertexId> members,
                         const std::vector<bool>& alive) {
  constexpr uint32_t kNone = static_cast<uint32_t>(-1);
  // Members are sorted, so membership and member index both resolve with
  // one binary search: nothing O(n) per cell.
  KSYM_DCHECK(std::is_sorted(members.begin(), members.end()));
  const auto index_of = [members](VertexId u) -> uint32_t {
    const auto it = std::lower_bound(members.begin(), members.end(), u);
    if (it == members.end() || *it != u) return kNone;
    return static_cast<uint32_t>(it - members.begin());
  };

  CellComponents split;
  std::vector<uint32_t> comp(members.size(), kNone);
  std::vector<uint32_t> queue;
  for (uint32_t start = 0; start < members.size(); ++start) {
    if (comp[start] != kNone) continue;
    const auto c = static_cast<uint32_t>(split.members.size());
    split.members.emplace_back();
    queue.assign(1, start);
    comp[start] = c;
    for (size_t head = 0; head < queue.size(); ++head) {
      for (VertexId u : graph.Neighbors(members[queue[head]])) {
        const uint32_t j = index_of(u);
        if (j != kNone && comp[j] == kNone) {
          comp[j] = c;
          queue.push_back(j);
        }
      }
    }
  }
  for (uint32_t i = 0; i < members.size(); ++i) {
    split.members[comp[i]].push_back(members[i]);
  }
  const auto num_components = static_cast<uint32_t>(split.members.size());
  if (num_components <= 1) return split;

  // G[members] on member indices, coloured by L(V).
  GraphBuilder builder(members.size());
  std::map<std::vector<VertexId>, uint32_t> signature_color;
  std::vector<uint32_t> colors(members.size());
  for (uint32_t i = 0; i < members.size(); ++i) {
    std::vector<VertexId> external;
    for (VertexId u : graph.Neighbors(members[i])) {
      const uint32_t j = index_of(u);
      if (j != kNone) {
        if (i < j) builder.AddEdge(i, j);
      } else if (partition.cell_of[u] != cell && (alive.empty() || alive[u])) {
        external.push_back(u);
      }
    }
    const auto [it, inserted] = signature_color.emplace(
        std::move(external), static_cast<uint32_t>(signature_color.size()));
    colors[i] = it->second;
  }

  // An automorphism of the coloured G[members] maps each component onto a
  // component, so two components are L(V)-copies iff some orbit meets
  // both — iff their least orbit representatives are equal.
  const std::vector<VertexId> orbit_rep =
      ComputeOrbitRepresentatives(builder.Build(), colors, nullptr);
  std::vector<uint32_t> least(num_components, kNone);
  for (uint32_t i = 0; i < members.size(); ++i) {
    least[comp[i]] = std::min(least[comp[i]], orbit_rep[i]);
  }
  std::vector<uint32_t> first_with(members.size(), kNone);
  split.copy_of.resize(num_components);
  for (uint32_t c = 0; c < num_components; ++c) {
    if (first_with[least[c]] == kNone) first_with[least[c]] = c;
    split.copy_of[c] = first_with[least[c]];
  }
  return split;
}

BackboneResult ComputeBackbone(const Graph& graph,
                               const VertexPartition& partition,
                               const ExecutionContext* context) {
  ScopedPhaseTimer timer(context, &RefinementStats::backbone_seconds);
  const size_t n = graph.NumVertices();
  KSYM_CHECK(partition.cell_of.size() == n);

  BackboneResult result;
  std::vector<bool> alive(n, true);

  std::vector<VertexId> members;

  bool changed = true;
  while (changed) {
    changed = false;
    for (uint32_t cell = 0; cell < partition.cells.size(); ++cell) {
      members.clear();
      for (VertexId v : partition.cells[cell]) {
        if (alive[v]) members.push_back(v);
      }
      const CellComponents split =
          SplitCell(graph, partition, cell, members, alive);
      // Keep the least component of each copy class — typically the
      // original — and remove the rest (they are orbit-copies).
      for (uint32_t c = 0; c < split.copy_of.size(); ++c) {
        if (split.copy_of[c] == c) continue;
        for (VertexId v : split.members[c]) alive[v] = false;
        result.removed_vertices += split.members[c].size();
        ++result.reduction_operations;
        changed = true;
      }
    }
  }

  // Compact the surviving vertices into the backbone graph + partition.
  for (VertexId v = 0; v < n; ++v) {
    if (alive[v]) result.kept.push_back(v);
  }
  result.graph = InducedSubgraph(graph, result.kept);
  std::vector<VertexId> to_new(n, kInvalidVertex);
  for (size_t i = 0; i < result.kept.size(); ++i) {
    to_new[result.kept[i]] = static_cast<VertexId>(i);
  }
  std::vector<std::vector<VertexId>> new_cells;
  for (const auto& cell : partition.cells) {
    std::vector<VertexId> new_cell;
    for (VertexId v : cell) {
      if (alive[v]) new_cell.push_back(to_new[v]);
    }
    if (!new_cell.empty()) new_cells.push_back(std::move(new_cell));
  }
  result.partition =
      VertexPartition::FromCells(result.kept.size(), std::move(new_cells));
  return result;
}

}  // namespace ksym
