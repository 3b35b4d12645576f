#include "dyn/repair.h"

#include <algorithm>
#include <utility>

#include "aut/refinement.h"
#include "dyn/delta_graph.h"

namespace ksym {
namespace dyn {

uint64_t PartitionChecksum(const VertexPartition& partition) {
  uint64_t h = HashCombine(0x6B73796D70617274ull, partition.cells.size());
  for (const std::vector<VertexId>& cell : partition.cells) {
    h = HashCombine(h, cell.size());
    for (VertexId v : cell) h = HashCombine(h, v);
  }
  return h;
}

namespace {

// The cell quotient of an equitable partition P* as a weighted graph on the
// c cells: column j lists (i, d_ij) for every cell i with d_ij > 0, where
// d_ij = |N(v) ∩ cell_j| for any v in cell_i (well-defined by
// equitability). Counting splitter cells S adds sum over j in S of d_ij to
// count[i]: the neighbours any vertex of cell i has in the union of S.
struct QuotientNeighborSource final : NeighborSource {
  std::vector<size_t> offsets = {0};  // Column j: [offsets[j], offsets[j+1]).
  std::vector<std::pair<uint32_t, uint32_t>> entries;  // (i, d_ij).

  size_t NumVertices() const override { return offsets.size() - 1; }

  void CountSplitter(std::span<const VertexId> splitter,
                     std::span<uint32_t> count,
                     std::vector<VertexId>& touched) override {
    for (const VertexId j : splitter) {
      for (size_t e = offsets[j]; e < offsets[j + 1]; ++e) {
        const auto [i, weight] = entries[e];
        if (count[i] == 0) touched.push_back(i);
        count[i] += weight;
      }
    }
  }
};

}  // namespace

Result<VertexPartition> RepairTotalDegreePartition(
    NeighborSource& source, const VertexPartition& parent,
    std::span<const VertexId> touched, const ExecutionContext* context,
    RepairStats* stats) {
  const size_t n = source.NumVertices();
  if (parent.cell_of.size() != n) {
    return Status::InvalidArgument(
        "parent partition covers " + std::to_string(parent.cell_of.size()) +
        " vertices but the graph has " + std::to_string(n));
  }
  for (VertexId v : touched) {
    if (v >= n) {
      return Status::OutOfRange("touched vertex " + std::to_string(v) +
                                " out of range (n=" + std::to_string(n) + ")");
    }
  }
  if (touched.empty()) return parent;

  // Dissolve: pool colour 0 for every cell containing a touched vertex;
  // untouched parent cell i keeps colour i+1 (order preserved).
  std::vector<bool> cell_touched(parent.NumCells(), false);
  for (VertexId v : touched) cell_touched[parent.cell_of[v]] = true;
  std::vector<uint32_t> colors(n, 0);
  std::vector<VertexId> pool;
  for (VertexId v = 0; v < n; ++v) {
    const uint32_t cell = parent.cell_of[v];
    if (cell_touched[cell]) {
      pool.push_back(v);
    } else {
      colors[v] = cell + 1;
    }
  }
  if (stats != nullptr) {
    stats->pool_vertices = pool.size();
    stats->pool_cells = static_cast<size_t>(
        std::count(cell_touched.begin(), cell_touched.end(), true));
  }

  OrderedPartition p(n, colors);

  // Seed set: the pool plus every cell with a neighbour in the pool. One
  // counting pass enumerates N(pool) as its touched list.
  std::vector<uint32_t> count(n, 0);
  std::vector<VertexId> adjacent;
  source.CountSplitter(pool, count, adjacent);
  std::vector<uint32_t> seeds;
  seeds.reserve(adjacent.size() + 1);
  seeds.push_back(p.CellStartOf(pool.front()));
  for (VertexId v : adjacent) {
    seeds.push_back(p.CellStartOf(v));
    count[v] = 0;  // Reset the scratch for the quotient pass below.
  }
  std::sort(seeds.begin(), seeds.end());
  seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());
  if (stats != nullptr) stats->seed_cells = seeds.size();

  const auto splitters = [context]() -> uint64_t {
    return context != nullptr ? context->stats().splitters_processed : 0;
  };
  const uint64_t seeded_start = splitters();
  Refiner(source, context).RefineSeeded(p, seeds);
  const uint64_t quotient_start = splitters();

  // Quotient coarsening. Index the P* cells in partition order; one
  // counting pass per cell j fills column j of the weight matrix, read off
  // at each cell's first member (equitability makes any member exact).
  std::vector<uint32_t> starts;
  constexpr uint32_t kNotRep = static_cast<uint32_t>(-1);
  std::vector<uint32_t> rep_cell(n, kNotRep);
  for (uint32_t start = 0; start < n; start += p.CellSizeAt(start)) {
    rep_cell[p.CellAt(start).front()] = static_cast<uint32_t>(starts.size());
    starts.push_back(start);
  }
  const size_t c = starts.size();
  QuotientNeighborSource quotient;
  quotient.offsets.reserve(c + 1);
  std::vector<VertexId> counted;
  for (const uint32_t start : starts) {
    source.CountSplitter(p.CellAt(start), count, counted);
    for (VertexId v : counted) {
      if (rep_cell[v] != kNotRep) {
        quotient.entries.push_back({rep_cell[v], count[v]});
      }
      count[v] = 0;
    }
    counted.clear();
    quotient.offsets.push_back(quotient.entries.size());
  }

  // The coarsest equitable partition of the weighted quotient, refined from
  // the unit partition, names the P* cells that TDV(G_new) merges.
  OrderedPartition classes(c, {});
  Refiner(quotient, context).RefineAll(classes);
  if (stats != nullptr) {
    stats->refine_splitters = quotient_start - seeded_start;
    stats->refined_cells = c;
    stats->quotient_splitters = splitters() - quotient_start;
    stats->quotient_merges = c - classes.NumCells();
  }

  std::vector<std::vector<VertexId>> merged;
  merged.reserve(classes.NumCells());
  for (uint32_t q = 0; q < c; q += classes.CellSizeAt(q)) {
    std::vector<VertexId>& out = merged.emplace_back();
    for (const VertexId i : classes.CellAt(q)) {
      const std::span<const VertexId> cell = p.CellAt(starts[i]);
      out.insert(out.end(), cell.begin(), cell.end());
    }
  }
  return VertexPartition::FromCells(n, std::move(merged));
}

}  // namespace dyn
}  // namespace ksym
