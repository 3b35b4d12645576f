// Tests for ordered partitions and equitable (colour) refinement.

#include "aut/refinement.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>

#include "graph/generators.h"

namespace ksym {
namespace {

using CellSets = std::vector<std::vector<VertexId>>;

// Cells as a set of vertex sets: each cell sorted, then the cells sorted.
CellSets AsSets(CellSets cells) {
  for (auto& cell : cells) std::sort(cell.begin(), cell.end());
  std::sort(cells.begin(), cells.end());
  return cells;
}

// Reference colour refinement, written for obviousness rather than speed:
// recolour every vertex by (its colour, the sorted multiset of its
// neighbours' colours) until the number of colours stops growing. Returns
// the coarsest equitable partition refining `colors` (unit if empty).
CellSets NaiveEquitableCells(const Graph& graph,
                             std::vector<uint32_t> colors) {
  const size_t n = graph.NumVertices();
  if (colors.empty()) colors.assign(n, 0);
  size_t num_colors = 0;
  while (true) {
    std::map<std::pair<uint32_t, std::vector<uint32_t>>, uint32_t> ids;
    std::vector<std::pair<uint32_t, std::vector<uint32_t>>> signature(n);
    for (VertexId v = 0; v < n; ++v) {
      signature[v].first = colors[v];
      for (VertexId u : graph.Neighbors(v)) {
        signature[v].second.push_back(colors[u]);
      }
      std::sort(signature[v].second.begin(), signature[v].second.end());
      ids.emplace(signature[v], 0);
    }
    uint32_t next_id = 0;
    for (auto& [sig, id] : ids) id = next_id++;
    for (VertexId v = 0; v < n; ++v) colors[v] = ids[signature[v]];
    // The signature includes the old colour, so colours only split.
    if (ids.size() == num_colors) break;
    num_colors = ids.size();
  }
  CellSets cells(num_colors);
  for (VertexId v = 0; v < n; ++v) cells[colors[v]].push_back(v);
  return AsSets(std::move(cells));
}

// A social-network-shaped configuration model: power-law degrees (minimum
// 1, exponent 2.2), capped below n.
Graph SocialGraph(size_t n, size_t max_degree, Rng& rng) {
  std::vector<size_t> degrees(n);
  size_t stubs = 0;
  for (size_t& d : degrees) {
    const double u = 1.0 - rng.NextDouble();  // In (0, 1].
    d = std::min(max_degree, static_cast<size_t>(std::pow(u, -1.0 / 1.2)));
    stubs += d;
  }
  if (stubs % 2 != 0) ++degrees[0];
  return ConfigurationModel(degrees, rng).value();
}

// Random ER, BA and configuration-model graphs of a few hundred vertices.
std::vector<Graph> ReferenceGraphs() {
  Rng rng(4242);
  std::vector<Graph> graphs;
  for (int trial = 0; trial < 3; ++trial) {
    graphs.push_back(ErdosRenyiGnm(150 + 50 * trial, 200 + 80 * trial, rng));
    graphs.push_back(BarabasiAlbert(200 + 50 * trial, 1 + trial, rng));
    graphs.push_back(SocialGraph(300 + 100 * trial, 40, rng));
  }
  return graphs;
}

// Checks the equitability property: for any two cells C, W, every vertex of
// C has the same number of neighbours in W.
void ExpectEquitable(const Graph& graph,
                     const std::vector<std::vector<VertexId>>& cells) {
  std::vector<uint32_t> cell_of(graph.NumVertices());
  for (uint32_t c = 0; c < cells.size(); ++c) {
    for (VertexId v : cells[c]) cell_of[v] = c;
  }
  for (const auto& cell : cells) {
    std::vector<size_t> reference(cells.size(), 0);
    bool first = true;
    for (VertexId v : cell) {
      std::vector<size_t> counts(cells.size(), 0);
      for (VertexId u : graph.Neighbors(v)) ++counts[cell_of[u]];
      if (first) {
        reference = counts;
        first = false;
      } else {
        EXPECT_EQ(counts, reference);
      }
    }
  }
}

TEST(OrderedPartitionTest, UnitPartition) {
  OrderedPartition p(5, {});
  EXPECT_EQ(p.NumCells(), 1u);
  EXPECT_FALSE(p.IsDiscrete());
  EXPECT_EQ(p.CellSizeAt(0), 5u);
}

TEST(OrderedPartitionTest, ColorsOrderCells) {
  OrderedPartition p(4, {2, 0, 2, 1});
  EXPECT_EQ(p.NumCells(), 3u);
  const auto cells = p.Cells();
  EXPECT_EQ(cells[0], (std::vector<VertexId>{1}));       // Color 0.
  EXPECT_EQ(cells[1], (std::vector<VertexId>{3}));       // Color 1.
  ASSERT_EQ(cells[2].size(), 2u);                        // Color 2.
}

TEST(OrderedPartitionTest, IndividualizeSplitsCell) {
  OrderedPartition p(4, {});
  const uint32_t singleton = p.Individualize(2);
  EXPECT_EQ(singleton, 3u);  // Carved from the tail of the segment.
  EXPECT_EQ(p.NumCells(), 2u);
  EXPECT_EQ(p.CellSizeAt(singleton), 1u);
  EXPECT_EQ(p.CellAt(singleton)[0], 2u);
  EXPECT_EQ(p.CellSizeAt(0), 3u);
}

TEST(OrderedPartitionTest, RevertRestoresCells) {
  OrderedPartition p(6, {});
  const size_t mark = p.JournalMark();
  p.Individualize(4);
  EXPECT_EQ(p.NumCells(), 2u);
  p.RevertTo(mark);
  EXPECT_EQ(p.NumCells(), 1u);
  EXPECT_EQ(p.CellSizeAt(p.CellStartOf(4)), 6u);
}

TEST(OrderedPartitionTest, TargetCellIsFirstNonSingleton) {
  OrderedPartition p(6, {2, 0, 0, 1, 1, 2});
  // Cells in colour order: {1,2}, {3,4}, {0,5}. First non-singleton: {1,2}.
  const uint32_t target = p.TargetCell();
  EXPECT_EQ(p.CellSizeAt(target), 2u);
  const auto cell = p.CellAt(target);
  EXPECT_TRUE(std::find(cell.begin(), cell.end(), 1u) != cell.end());
  EXPECT_TRUE(std::find(cell.begin(), cell.end(), 2u) != cell.end());

  // Discrete partitions have no target.
  OrderedPartition discrete(3, {0, 1, 2});
  EXPECT_EQ(discrete.TargetCell(), OrderedPartition::kNoCell);
}

TEST(OrderedPartitionTest, DiscreteToLabeling) {
  OrderedPartition p(3, {2, 0, 1});
  ASSERT_TRUE(p.IsDiscrete());
  const Permutation lab = p.ToLabeling();
  EXPECT_EQ(lab.Image(1), 0u);  // Color 0 first.
  EXPECT_EQ(lab.Image(2), 1u);
  EXPECT_EQ(lab.Image(0), 2u);
}

TEST(RefinementTest, RegularGraphStaysUnit) {
  // Colour refinement cannot split a regular graph's unit partition.
  const Graph c6 = MakeCycle(6);
  const auto cells = EquitablePartition(c6, {});
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].size(), 6u);
}

TEST(RefinementTest, StarSplitsHubFromLeaves) {
  const auto cells = EquitablePartition(MakeStar(6), {});
  ASSERT_EQ(cells.size(), 2u);
  // One singleton cell (hub), one 5-cell (leaves).
  const size_t small = std::min(cells[0].size(), cells[1].size());
  const size_t large = std::max(cells[0].size(), cells[1].size());
  EXPECT_EQ(small, 1u);
  EXPECT_EQ(large, 5u);
}

TEST(RefinementTest, PathRefinesByDistanceToEnds) {
  // P_5: cells {0,4}, {1,3}, {2}.
  const auto cells = EquitablePartition(MakePath(5), {});
  EXPECT_EQ(cells.size(), 3u);
  ExpectEquitable(MakePath(5), cells);
}

TEST(RefinementTest, ResultIsAlwaysEquitable) {
  Rng rng(31);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = ErdosRenyiGnm(40, 70, rng);
    ExpectEquitable(g, EquitablePartition(g, {}));
  }
}

TEST(RefinementTest, RespectsInitialColors) {
  // C_4 with one coloured vertex: refinement separates by distance to it.
  const Graph c4 = MakeCycle(4);
  const auto cells = EquitablePartition(c4, RefinementOptions{.colors = {1, 0, 0, 0}});
  // {0}, {1,3}, {2}.
  EXPECT_EQ(cells.size(), 3u);
  ExpectEquitable(c4, cells);
}

TEST(RefinementTest, TraceHashIsInvariantUnderRelabeling) {
  // The trace hash of isomorphic graphs (same initial colouring pattern)
  // must match.
  const Graph g1 = MakePath(6);
  GraphBuilder b(6);  // The same path written backwards: 5-4-3-2-1-0.
  for (VertexId i = 0; i + 1 < 6; ++i) b.AddEdge(5 - i, 4 - i);
  const Graph g2 = b.Build();

  OrderedPartition p1(6, {});
  OrderedPartition p2(6, {});
  Refiner r1(g1);
  Refiner r2(g2);
  EXPECT_EQ(r1.RefineAll(p1), r2.RefineAll(p2));
}

TEST(RefinementTest, TraceHashDiffersForDifferentStructures) {
  OrderedPartition p1(6, {});
  OrderedPartition p2(6, {});
  const Graph path = MakePath(6);
  const Graph star = MakeStar(6);
  Refiner r1(path);
  Refiner r2(star);
  EXPECT_NE(r1.RefineAll(p1), r2.RefineAll(p2));
}

TEST(RefinementTest, IndividualizeThenRefineReachesDiscreteOnPath) {
  const Graph p4 = MakePath(4);  // Cells after refine: {0,3}, {1,2}.
  OrderedPartition partition(4, {});
  Refiner refiner(p4);
  refiner.RefineAll(partition);
  EXPECT_EQ(partition.NumCells(), 2u);
  const uint32_t start = partition.Individualize(0);
  refiner.RefineFrom(partition, start);
  EXPECT_TRUE(partition.IsDiscrete());
}

TEST(RefinementTest, EquitablePartitionCellsCoverAllVertices) {
  Rng rng(37);
  const Graph g = BarabasiAlbert(120, 2, rng);
  const auto cells = EquitablePartition(g, {});
  size_t total = 0;
  std::vector<bool> seen(g.NumVertices(), false);
  for (const auto& cell : cells) {
    for (VertexId v : cell) {
      EXPECT_FALSE(seen[v]);
      seen[v] = true;
      ++total;
    }
  }
  EXPECT_EQ(total, g.NumVertices());
}

TEST(ReferenceRefinementTest, EquitablePartitionMatchesNaiveRefiner) {
  Rng rng(17);
  for (const Graph& graph : ReferenceGraphs()) {
    SCOPED_TRACE(testing::Message() << "n=" << graph.NumVertices()
                                    << " m=" << graph.NumEdges());
    EXPECT_EQ(AsSets(EquitablePartition(graph, {})),
              NaiveEquitableCells(graph, {}));
    std::vector<uint32_t> colors(graph.NumVertices());
    for (uint32_t& c : colors) c = static_cast<uint32_t>(rng.NextBounded(3));
    EXPECT_EQ(AsSets(EquitablePartition(graph,
                                        RefinementOptions{.colors = colors})),
              NaiveEquitableCells(graph, colors));
  }
}

TEST(ReferenceRefinementTest, RefineFromMatchesNaiveRefiner) {
  Rng rng(19);
  for (const Graph& graph : ReferenceGraphs()) {
    SCOPED_TRACE(testing::Message() << "n=" << graph.NumVertices());
    const size_t n = graph.NumVertices();
    OrderedPartition p(n, {});
    Refiner refiner(graph);
    refiner.RefineAll(p);
    // Individualize twice, as two levels of the search do, and check each
    // level against the naive refinement of the same colouring.
    for (int depth = 0; depth < 2 && p.TargetCell() != p.kNoCell; ++depth) {
      const auto target = p.CellAt(p.TargetCell());
      const VertexId v = target[rng.NextBounded(target.size())];
      std::vector<uint32_t> colors(n);
      const CellSets before = p.Cells();
      for (uint32_t c = 0; c < before.size(); ++c) {
        for (VertexId u : before[c]) colors[u] = c;
      }
      colors[v] = static_cast<uint32_t>(before.size());
      refiner.RefineFrom(p, p.Individualize(v));
      EXPECT_EQ(AsSets(p.Cells()), NaiveEquitableCells(graph, colors));
    }
  }
}

TEST(ReferenceRefinementTest, RefineSeededWithRepairSeedsMatchesNaiveRefiner) {
  // The dissolve-and-seed step of dyn/repair.cc: TDV of the old graph, the
  // cells holding an edited endpoint merged into one pool, and the worklist
  // seeded with the pool plus every cell adjacent to it in the new graph.
  Rng rng(23);
  for (const Graph& graph : ReferenceGraphs()) {
    SCOPED_TRACE(testing::Message() << "n=" << graph.NumVertices());
    const size_t n = graph.NumVertices();
    // The old graph lacks a few of the new graph's edges.
    GraphBuilder old_builder(n);
    std::vector<VertexId> touched;
    graph.ForEachEdge([&](VertexId u, VertexId v) {
      if (touched.size() < 8 && rng.NextBernoulli(0.05)) {
        touched.push_back(u);
        touched.push_back(v);
      } else {
        old_builder.AddEdge(u, v);
      }
    });
    const CellSets parent = EquitablePartition(old_builder.Build(), {});

    std::vector<uint32_t> colors(n);
    std::vector<bool> dissolved(parent.size(), false);
    for (uint32_t c = 0; c < parent.size(); ++c) {
      for (VertexId v : parent[c]) {
        colors[v] = c + 1;
        dissolved[c] = dissolved[c] || std::find(touched.begin(), touched.end(),
                                                 v) != touched.end();
      }
    }
    std::vector<VertexId> pool;
    for (uint32_t c = 0; c < parent.size(); ++c) {
      if (!dissolved[c]) continue;
      for (VertexId v : parent[c]) {
        colors[v] = 0;
        pool.push_back(v);
      }
    }
    ASSERT_FALSE(pool.empty());

    OrderedPartition p(n, colors);
    std::vector<uint32_t> seeds = {p.CellStartOf(pool.front())};
    for (VertexId v : pool) {
      for (VertexId u : graph.Neighbors(v)) seeds.push_back(p.CellStartOf(u));
    }
    std::sort(seeds.begin(), seeds.end());
    seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());
    Refiner(graph).RefineSeeded(p, seeds);
    EXPECT_EQ(AsSets(p.Cells()), NaiveEquitableCells(graph, colors));
  }
}

// The work bound of the Hopcroft schedule, independent of the machine: a
// split keys and moves only touched vertices, so the cell elements scanned
// never exceed twice the touched count.
TEST(RefinementWorkTest, ElementsScannedWithinTwiceTouched) {
  Rng rng(2010);
  const Graph graphs[] = {BarabasiAlbert(20000, 4, rng),
                          SocialGraph(20000, 500, rng)};
  for (const Graph& graph : graphs) {
    ExecutionContext context;
    OrderedPartition p(graph.NumVertices(), {});
    Refiner(graph, &context).RefineAll(p);
    const RefinementStats& stats = context.stats();
    EXPECT_GT(stats.touched_vertices, 0u);
    EXPECT_GT(stats.cells_split, 0u);
    EXPECT_LE(stats.elements_scanned, 2 * stats.touched_vertices)
        << "n=" << graph.NumVertices();
    EXPECT_EQ(stats.parallel_splitters, 0u);
  }
}

TEST(OrderedPartitionTest, CarveKeepsUntouchedRemainderFirst) {
  OrderedPartition p(6, {});
  const VertexId tail[] = {4, 1, 5};
  const uint32_t groups[] = {1, 2};
  p.Carve(0, tail, groups);
  EXPECT_EQ(p.NumCells(), 3u);
  EXPECT_EQ(AsSets(p.Cells()), (CellSets{{0, 2, 3}, {1, 5}, {4}}));
  EXPECT_EQ(p.CellSizeAt(0), 3u);  // The remainder keeps the cell start.
  EXPECT_EQ(p.CellStartOf(4), 3u);
  EXPECT_EQ(p.CellStartOf(1), 4u);
  EXPECT_EQ(p.CellStartOf(5), 4u);
}

TEST(OrderedPartitionTest, RevertUndoesNestedCarves) {
  OrderedPartition p(8, {});
  const size_t mark = p.JournalMark();
  const VertexId all[] = {7, 6, 5, 4, 3, 2, 1, 0};
  const uint32_t halves[] = {4, 4};
  p.Carve(0, all, halves);
  const VertexId inner[] = {6};
  const uint32_t one[] = {1};
  p.Carve(p.CellStartOf(6), inner, one);
  p.Individualize(0);
  EXPECT_EQ(p.NumCells(), 4u);
  p.RevertTo(mark);
  EXPECT_EQ(p.NumCells(), 1u);
  for (VertexId v = 0; v < 8; ++v) EXPECT_EQ(p.CellStartOf(v), 0u);
  EXPECT_EQ(p.CellSizeAt(0), 8u);
}

}  // namespace
}  // namespace ksym
