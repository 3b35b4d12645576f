#include "ksym/backbone.h"

#include <algorithm>
#include <map>
#include <tuple>
#include <utility>

#include "aut/isomorphism.h"
#include "graph/algorithms.h"

namespace ksym {
namespace {

// One connected component of a cell-induced subgraph, extracted with its
// L(V) colours (colour = id of the member's external neighbourhood).
struct CellComponent {
  std::vector<VertexId> members;  // Sorted original vertex ids.
  Graph subgraph;                 // Induced on `members`.
  std::vector<uint32_t> colors;   // External-neighbourhood colour per member.

  // Cheap isomorphism-invariant grouping key.
  using Key = std::tuple<size_t, size_t, std::vector<std::pair<uint32_t, uint32_t>>>;
  Key InvariantKey() const {
    std::vector<std::pair<uint32_t, uint32_t>> profile;
    profile.reserve(members.size());
    for (VertexId i = 0; i < subgraph.NumVertices(); ++i) {
      profile.emplace_back(colors[i],
                           static_cast<uint32_t>(subgraph.Degree(i)));
    }
    std::sort(profile.begin(), profile.end());
    return {subgraph.NumVertices(), subgraph.NumEdges(), std::move(profile)};
  }
};

}  // namespace

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
  if (split.members.size() <= 1) return split;

  std::map<std::vector<VertexId>, uint32_t> signature_color;
  split.colors.resize(split.members.size());
  for (uint32_t i = 0; i < members.size(); ++i) {
    std::vector<VertexId> external;
    for (VertexId u : graph.Neighbors(members[i])) {
      if (partition.cell_of[u] != cell && (alive.empty() || alive[u])) {
        external.push_back(u);
      }
    }
    const auto [it, inserted] = signature_color.emplace(
        std::move(external), static_cast<uint32_t>(signature_color.size()));
    split.colors[comp[i]].push_back(it->second);
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
  SubgraphExtractor extractor(graph);

  bool changed = true;
  while (changed) {
    changed = false;
    for (uint32_t cell = 0; cell < partition.cells.size(); ++cell) {
      members.clear();
      for (VertexId v : partition.cells[cell]) {
        if (alive[v]) members.push_back(v);
      }
      CellComponents split = SplitCell(graph, partition, cell, members, alive);
      if (split.members.size() <= 1) continue;

      // Components in order of least member, which keeps the lowest-id —
      // typically original — component as the representative.
      std::vector<CellComponent> components(split.members.size());
      for (size_t c = 0; c < components.size(); ++c) {
        components[c].members = std::move(split.members[c]);
        components[c].subgraph = extractor.Extract(components[c].members);
        components[c].colors = std::move(split.colors[c]);
      }

      // Keep one representative per colour-isomorphism class; remove the
      // rest (they are orbit-copies).
      std::map<CellComponent::Key, std::vector<const CellComponent*>> reps;
      for (const CellComponent& component : components) {
        auto& bucket = reps[component.InvariantKey()];
        bool is_copy = false;
        for (const CellComponent* rep : bucket) {
          if (AreIsomorphic(component.subgraph, rep->subgraph,
                            component.colors, rep->colors)) {
            is_copy = true;
            break;
          }
        }
        if (is_copy) {
          for (VertexId v : component.members) alive[v] = false;
          result.removed_vertices += component.members.size();
          ++result.reduction_operations;
          changed = true;
        } else {
          bucket.push_back(&component);
        }
      }
    }
  }

  // Compact the surviving vertices into the backbone graph + partition.
  for (VertexId v = 0; v < n; ++v) {
    if (alive[v]) result.kept.push_back(v);
  }
  result.graph = extractor.Extract(result.kept);
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
