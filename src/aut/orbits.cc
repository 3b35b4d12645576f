#include "aut/orbits.h"

#include <algorithm>

#include "aut/refinement.h"
#include "aut/search.h"

namespace ksym {

size_t VertexPartition::NumSingletons() const {
  size_t count = 0;
  for (const auto& cell : cells) {
    if (cell.size() == 1) ++count;
  }
  return count;
}

VertexPartition VertexPartition::FromRepresentatives(
    const std::vector<VertexId>& rep) {
  const size_t n = rep.size();
  // Group by representative, ordered by the cell's minimum element. The
  // orbit machinery emits minima as representatives, so rep[r] == r exactly
  // for cell representatives and scanning vertices in id order assigns cell
  // indices in min-element order — two flat passes, no associative
  // container.
  VertexPartition partition;
  partition.cell_of.assign(n, 0);
  std::vector<uint32_t> cell_of_rep(n, static_cast<uint32_t>(-1));
  uint32_t num_cells = 0;
  for (VertexId v = 0; v < n; ++v) {
    KSYM_DCHECK(rep[v] < n);
    KSYM_DCHECK(rep[v] <= v);  // Representatives are minima.
    if (cell_of_rep[rep[v]] == static_cast<uint32_t>(-1)) {
      cell_of_rep[rep[v]] = num_cells++;
    }
    partition.cell_of[v] = cell_of_rep[rep[v]];
  }
  partition.cells.resize(num_cells);
  // Reserve every cell exactly before filling: on 200k-cell partitions the
  // repeated push_back growth otherwise reallocates each cell ~log(size)
  // times.
  std::vector<uint32_t> cell_sizes(num_cells, 0);
  for (VertexId v = 0; v < n; ++v) ++cell_sizes[partition.cell_of[v]];
  for (uint32_t c = 0; c < num_cells; ++c) {
    partition.cells[c].reserve(cell_sizes[c]);
  }
  for (VertexId v = 0; v < n; ++v) {
    partition.cells[partition.cell_of[v]].push_back(v);  // Sorted by scan.
  }
  return partition;
}

VertexPartition VertexPartition::FromCells(
    size_t n, std::vector<std::vector<VertexId>> cells) {
  for (auto& cell : cells) std::sort(cell.begin(), cell.end());
  std::sort(cells.begin(), cells.end(),
            [](const std::vector<VertexId>& a, const std::vector<VertexId>& b) {
              KSYM_DCHECK(!a.empty() && !b.empty());
              return a.front() < b.front();
            });
  VertexPartition partition;
  partition.cell_of.assign(n, static_cast<uint32_t>(-1));
  for (size_t i = 0; i < cells.size(); ++i) {
    for (VertexId v : cells[i]) {
      KSYM_CHECK(v < n);
      KSYM_CHECK(partition.cell_of[v] == static_cast<uint32_t>(-1));
      partition.cell_of[v] = static_cast<uint32_t>(i);
    }
  }
  for (uint32_t c : partition.cell_of) KSYM_CHECK(c != static_cast<uint32_t>(-1));
  partition.cells = std::move(cells);
  return partition;
}

VertexPartition ComputeAutomorphismPartition(const Graph& graph,
                                             const std::vector<uint32_t>& colors,
                                             const ExecutionContext* context) {
  return VertexPartition::FromRepresentatives(
      ComputeOrbitRepresentatives(graph, colors, context));
}

VertexPartition ComputeTotalDegreePartition(const Graph& graph,
                                            const ExecutionContext* context,
                                            uint64_t* trace_hash) {
  return VertexPartition::FromCells(
      graph.NumVertices(),
      EquitablePartition(graph, RefinementOptions{.context = context,
                                                  .trace_hash = trace_hash}));
}

}  // namespace ksym
