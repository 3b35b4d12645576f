// Tests for orbit partitions (Orb(G)) and the total degree partition TDV(G).

#include "aut/orbits.h"

#include <gtest/gtest.h>

#include "datasets/datasets.h"
#include "graph/generators.h"

namespace ksym {
namespace {

TEST(VertexPartitionTest, FromRepresentatives) {
  const VertexPartition p =
      VertexPartition::FromRepresentatives({0, 1, 0, 1, 4});
  EXPECT_EQ(p.NumCells(), 3u);
  EXPECT_EQ(p.cells[0], (std::vector<VertexId>{0, 2}));
  EXPECT_EQ(p.cells[1], (std::vector<VertexId>{1, 3}));
  EXPECT_EQ(p.cells[2], (std::vector<VertexId>{4}));
  EXPECT_EQ(p.cell_of[2], 0u);
  EXPECT_EQ(p.CellSizeOf(3), 2u);
  EXPECT_EQ(p.NumSingletons(), 1u);
}

TEST(VertexPartitionTest, FromCellsOrdersByMinimum) {
  const VertexPartition p =
      VertexPartition::FromCells(4, {{3, 1}, {2, 0}});
  EXPECT_EQ(p.cells[0], (std::vector<VertexId>{0, 2}));
  EXPECT_EQ(p.cells[1], (std::vector<VertexId>{1, 3}));
}

TEST(OrbitPartitionTest, FigureOneExample) {
  // A reconstruction of the paper's Figure 1(b): orbits {1,3}, {4,5},
  // {6,8} and singletons {2} (Bob) and {7} (1-indexed as in the paper;
  // 0-indexed below). Bob has two degree-1 neighbours and degree 4; the
  // only degree >= 3 vertices are {2, 4, 5}, matching Example 1.
  GraphBuilder b(8);
  b.AddEdge(0, 1);  // "1-2": pendant on Bob.
  b.AddEdge(1, 2);  // "2-3": pendant on Bob.
  b.AddEdge(1, 3);  // "2-4".
  b.AddEdge(1, 4);  // "2-5".
  b.AddEdge(3, 4);  // "4-5".
  b.AddEdge(3, 5);  // "4-6".
  b.AddEdge(4, 7);  // "5-8".
  b.AddEdge(5, 6);  // "6-7".
  b.AddEdge(6, 7);  // "7-8".
  const Graph g = b.Build();
  const VertexPartition orbits = ComputeAutomorphismPartition(g, {}, nullptr);
  // Orbits: {0,2}, {1}, {3,4}, {5,7}, {6}.
  EXPECT_EQ(orbits.NumCells(), 5u);
  EXPECT_EQ(orbits.CellSizeOf(0), 2u);
  EXPECT_EQ(orbits.cell_of[0], orbits.cell_of[2]);
  EXPECT_EQ(orbits.CellSizeOf(1), 1u);
  EXPECT_EQ(orbits.cell_of[3], orbits.cell_of[4]);
  EXPECT_EQ(orbits.cell_of[5], orbits.cell_of[7]);
  EXPECT_EQ(orbits.CellSizeOf(6), 1u);
}

TEST(OrbitPartitionTest, VertexTransitiveGraphsHaveOneOrbit) {
  for (const Graph& g : {MakeCycle(7), MakeComplete(5), MakePetersen(),
                         MakeHypercube(3)}) {
    const VertexPartition orbits = ComputeAutomorphismPartition(g, {}, nullptr);
    EXPECT_EQ(orbits.NumCells(), 1u);
  }
}

TEST(OrbitPartitionTest, ColoredOrbitsRefine) {
  const Graph c4 = MakeCycle(4);
  const VertexPartition plain = ComputeAutomorphismPartition(c4, {}, nullptr);
  EXPECT_EQ(plain.NumCells(), 1u);
  const VertexPartition colored =
      ComputeAutomorphismPartition(c4, {0, 1, 0, 1}, nullptr);
  // Colour-preserving group keeps the two classes apart.
  EXPECT_EQ(colored.NumCells(), 2u);
}

TEST(TotalDegreePartitionTest, CoarserOrEqualToOrbits) {
  // Every orbit lies inside one TDV cell.
  Rng rng(47);
  for (int trial = 0; trial < 6; ++trial) {
    const Graph g = ErdosRenyiGnm(40, 60, rng);
    const VertexPartition orbits = ComputeAutomorphismPartition(g, {}, nullptr);
    const VertexPartition tdv = ComputeTotalDegreePartition(g, nullptr);
    for (const auto& orbit : orbits.cells) {
      const uint32_t cell = tdv.cell_of[orbit.front()];
      for (VertexId v : orbit) EXPECT_EQ(tdv.cell_of[v], cell);
    }
  }
}

TEST(TotalDegreePartitionTest, EqualsOrbitsOnTrees) {
  // For trees, colour refinement decides isomorphism, so TDV = Orb.
  const Graph t = MakeBalancedTree(2, 3);
  EXPECT_TRUE(ComputeTotalDegreePartition(t, nullptr) ==
              ComputeAutomorphismPartition(t, {}, nullptr));
}

TEST(TotalDegreePartitionTest, StrictlyCoarserOnRegularRigidGraph) {
  // The Frucht graph is 3-regular with trivial automorphism group: TDV is
  // the unit partition but Orb is discrete.
  // Hamiltonian cycle plus LCF [-5,-2,-4,2,5,-2,2,5,-2,-5,4,2] chords.
  GraphBuilder b(12);
  for (int i = 0; i < 12; ++i) b.AddEdge(i, (i + 1) % 12);
  const std::pair<int, int> chords[] = {{0, 7}, {1, 11}, {2, 10},
                                        {3, 5}, {4, 9},  {6, 8}};
  for (const auto& [u, v] : chords) b.AddEdge(u, v);
  const Graph frucht = b.Build();
  ASSERT_EQ(frucht.NumEdges(), 18u);
  EXPECT_EQ(ComputeTotalDegreePartition(frucht, nullptr).NumCells(), 1u);
  EXPECT_EQ(ComputeAutomorphismPartition(frucht, {}, nullptr).NumCells(), 12u);
}

TEST(TotalDegreePartitionTest, EqualsOrbitsOnDatasetStandIns) {
  // The paper's Section 7 claim, TDV(G) = Orb(G) on every network tested,
  // re-checked on the stand-ins for its Table 1 networks.
  for (uint64_t seed : {kDefaultDatasetSeed, uint64_t{1}, uint64_t{2}}) {
    for (const Graph& g : {MakeEnronLike(seed), MakeHepthLike(seed),
                           MakeNetTraceLike(seed)}) {
      EXPECT_TRUE(ComputeTotalDegreePartition(g, nullptr) ==
                  ComputeAutomorphismPartition(g, {}, nullptr))
          << "seed " << seed << ", n = " << g.NumVertices();
    }
  }
}

}  // namespace
}  // namespace ksym
