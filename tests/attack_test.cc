// Tests for structural measures and re-identification statistics
// (Section 2.2, Figure 2 machinery).

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "attack/measures.h"
#include "attack/reidentification.h"
#include "datasets/datasets.h"
#include "graph/generators.h"
#include "ksym/anonymizer.h"

namespace ksym {
namespace {

// The paper's Figure 1(b) reconstruction (see orbits_test).
Graph Figure1Graph() {
  GraphBuilder b(8);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(1, 3);
  b.AddEdge(1, 4);
  b.AddEdge(3, 4);
  b.AddEdge(3, 5);
  b.AddEdge(4, 7);
  b.AddEdge(5, 6);
  b.AddEdge(6, 7);
  return b.Build();
}

TEST(MeasuresTest, DegreePartitionGroupsByDegree) {
  const Graph g = MakeStar(5);
  const VertexPartition p = PartitionByMeasure(g, DegreeMeasure());
  EXPECT_EQ(p.NumCells(), 2u);
  EXPECT_EQ(p.CellSizeOf(0), 1u);  // Hub.
  EXPECT_EQ(p.CellSizeOf(1), 4u);  // Leaves.
}

TEST(MeasuresTest, TrianglePartition) {
  // Triangle with a tail: vertices on the triangle have tri=1, the tail 0.
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(0, 2);
  b.AddEdge(2, 3);
  const VertexPartition p = PartitionByMeasure(b.Build(), TriangleMeasure());
  EXPECT_EQ(p.cell_of[0], p.cell_of[1]);
  EXPECT_EQ(p.cell_of[0], p.cell_of[2]);
  EXPECT_NE(p.cell_of[0], p.cell_of[3]);
}

TEST(MeasuresTest, NeighborDegreeSequenceRefinesDegree) {
  // Measure-induced partitions: Deg(v) always refines deg(v).
  Rng rng(109);
  const Graph g = ErdosRenyiGnm(40, 80, rng);
  const VertexPartition by_degree = PartitionByMeasure(g, DegreeMeasure());
  const VertexPartition by_nds =
      PartitionByMeasure(g, NeighborDegreeSequenceMeasure());
  // Same Deg(v) implies same deg(v) (sequence length).
  for (const auto& cell : by_nds.cells) {
    const uint32_t degree_cell = by_degree.cell_of[cell.front()];
    for (VertexId v : cell) EXPECT_EQ(by_degree.cell_of[v], degree_cell);
  }
}

TEST(MeasuresTest, CombinedRefinesBothComponents) {
  Rng rng(113);
  const Graph g = BarabasiAlbert(60, 2, rng);
  const VertexPartition combined = PartitionByMeasure(g, CombinedMeasure());
  const VertexPartition by_tri = PartitionByMeasure(g, TriangleMeasure());
  const VertexPartition by_nds =
      PartitionByMeasure(g, NeighborDegreeSequenceMeasure());
  EXPECT_GE(combined.NumCells(), by_tri.NumCells());
  EXPECT_GE(combined.NumCells(), by_nds.NumCells());
}

TEST(MeasuresTest, NeighborhoodRefinesDegreeAndTriangle) {
  Rng rng(211);
  const Graph g = BarabasiAlbert(50, 2, rng);
  const VertexPartition by_deg = PartitionByMeasure(g, DegreeMeasure());
  const VertexPartition by_tri = PartitionByMeasure(g, TriangleMeasure());
  const VertexPartition by_nbh = PartitionByMeasure(g, NeighborhoodMeasure());
  // Vertices equal under the neighborhood class share degree and triangles.
  for (const auto& cell : by_nbh.cells) {
    for (VertexId v : cell) {
      EXPECT_EQ(by_deg.cell_of[v], by_deg.cell_of[cell.front()]);
      EXPECT_EQ(by_tri.cell_of[v], by_tri.cell_of[cell.front()]);
    }
  }
}

TEST(MeasuresTest, NeighborhoodDistinguishesLocalStructure) {
  // Two degree-2 vertices, one on a triangle and one on a path, are
  // indistinguishable by degree but separated by the neighborhood measure.
  GraphBuilder b(6);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(0, 2);  // Triangle 0-1-2.
  b.AddEdge(2, 3);
  b.AddEdge(3, 4);
  b.AddEdge(4, 5);  // Tail; vertex 4 has degree 2, no triangle.
  const Graph g = b.Build();
  const VertexPartition by_deg = PartitionByMeasure(g, DegreeMeasure());
  const VertexPartition by_nbh = PartitionByMeasure(g, NeighborhoodMeasure());
  EXPECT_EQ(by_deg.cell_of[0], by_deg.cell_of[4]);  // Both degree 2.
  EXPECT_NE(by_nbh.cell_of[0], by_nbh.cell_of[4]);
}

// Reference for the neighbourhood measure: u and v share a class iff some
// bijection N(u) -> N(v) preserves adjacency among the neighbours (the
// centres map to each other), tried exhaustively. Each vertex joins the
// class of the first earlier vertex it matches.
VertexPartition BruteForceNeighborhoodPartition(const Graph& g) {
  const auto rooted_isomorphic = [&g](VertexId u, VertexId v) {
    const auto nu = g.Neighbors(u);
    const auto nv = g.Neighbors(v);
    if (nu.size() != nv.size()) return false;
    std::vector<size_t> image(nu.size());
    std::iota(image.begin(), image.end(), size_t{0});
    do {
      bool ok = true;
      for (size_t i = 0; i < nu.size() && ok; ++i) {
        for (size_t j = i + 1; j < nu.size() && ok; ++j) {
          ok = g.HasEdge(nu[i], nu[j]) == g.HasEdge(nv[image[i]], nv[image[j]]);
        }
      }
      if (ok) return true;
    } while (std::next_permutation(image.begin(), image.end()));
    return false;
  };
  std::vector<VertexId> rep(g.NumVertices());
  std::vector<VertexId> reps;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    rep[v] = v;
    for (VertexId r : reps) {
      if (rooted_isomorphic(v, r)) {
        rep[v] = r;
        break;
      }
    }
    if (rep[v] == v) reps.push_back(v);
  }
  return VertexPartition::FromRepresentatives(rep);
}

// A random graph with every degree at most `max_degree`.
Graph BoundedDegreeGraph(size_t n, size_t tries, size_t max_degree,
                         Rng& rng) {
  std::vector<size_t> degree(n, 0);
  std::vector<bool> adjacent(n * n, false);
  GraphBuilder b(n);
  for (size_t t = 0; t < tries; ++t) {
    const auto u = static_cast<VertexId>(rng.NextBounded(n));
    const auto v = static_cast<VertexId>(rng.NextBounded(n));
    if (u == v || degree[u] == max_degree || degree[v] == max_degree ||
        adjacent[u * n + v]) {
      continue;
    }
    adjacent[u * n + v] = adjacent[v * n + u] = true;
    ++degree[u];
    ++degree[v];
    b.AddEdge(u, v);
  }
  return b.Build();
}

TEST(MeasuresTest, NeighborhoodMatchesBruteForceRootedIsomorphism) {
  Rng rng(223);
  // A hub on a 6-cycle and a hub on two triangles: colour refinement of
  // the rooted ego nets cannot tell them apart, the isomorphism split must.
  GraphBuilder hubs(14);
  for (VertexId i = 0; i < 6; ++i) {
    hubs.AddEdge(0, 1 + i);
    hubs.AddEdge(1 + i, 1 + (i + 1) % 6);
    hubs.AddEdge(7, 8 + i);
    hubs.AddEdge(8 + i, 8 + 3 * (i / 3) + (i + 1) % 3);
  }
  std::vector<Graph> graphs = {hubs.Build(), Figure1Graph(), MakePetersen(),
                               MakeGrid(4, 5), MakeBalancedTree(3, 3)};
  for (int trial = 0; trial < 12; ++trial) {
    graphs.push_back(BoundedDegreeGraph(40, 20 + 10 * trial, 6, rng));
  }
  const VertexPartition hub_classes =
      BruteForceNeighborhoodPartition(graphs[0]);
  EXPECT_NE(hub_classes.cell_of[0], hub_classes.cell_of[7]);
  for (const Graph& g : graphs) {
    EXPECT_TRUE(PartitionByMeasure(g, NeighborhoodMeasure()) ==
                BruteForceNeighborhoodPartition(g));
  }
}

// FNV-1a over the label bytes.
uint64_t LabelHash(const std::vector<uint32_t>& labels) {
  uint64_t hash = 1469598103934665603ull;
  for (uint32_t label : labels) {
    for (int shift = 0; shift < 32; shift += 8) {
      hash ^= (label >> shift) & 0xff;
      hash *= 1099511628211ull;
    }
  }
  return hash;
}

TEST(MeasuresTest, NeighborhoodLabelsPinnedOnDatasets) {
  // Cell counts and label hashes recorded from the canonical-labelling
  // implementation this measure replaced; the labels must not move.
  struct Pin {
    Graph graph;
    size_t cells;
    uint64_t hash;
  };
  const Pin pins[] = {
      {MakeEnronLike(), 67, 0x66f5d02d4c824d4bull},
      {MakeHepthLike(), 395, 0xc9f12fdf35869d5cull},
      {MakeHepthLike(kDefaultDatasetSeed + 1), 420, 0xf8ac411cb2d8abfeull},
      {MakeNetTraceLike(), 169, 0xd42ba35f39b2668cull},
  };
  for (const Pin& pin : pins) {
    const std::vector<uint32_t> labels = NeighborhoodMeasure().eval(pin.graph);
    EXPECT_EQ(*std::max_element(labels.begin(), labels.end()) + 1, pin.cells);
    EXPECT_EQ(LabelHash(labels), pin.hash);
  }
}

TEST(MeasuresTest, MeasurePartitionsAreCoarserThanOrbits) {
  // Theory: Orb(v) is contained in every candidate set, so every measure
  // partition is coarser than Orb(G).
  const Graph g = Figure1Graph();
  const VertexPartition orbits = ComputeAutomorphismPartition(g, {}, nullptr);
  for (const auto& measure :
       {DegreeMeasure(), TriangleMeasure(), NeighborDegreeSequenceMeasure(),
        NeighborhoodMeasure(), CombinedMeasure()}) {
    const VertexPartition p = PartitionByMeasure(g, measure);
    for (const auto& orbit : orbits.cells) {
      const uint32_t cell = p.cell_of[orbit.front()];
      for (VertexId v : orbit) {
        EXPECT_EQ(p.cell_of[v], cell) << measure.name;
      }
    }
  }
}

TEST(MeasuresTest, CandidateSetExample1) {
  // Example 1: knowledge P2 "Bob has 2 neighbours with degree 1" uniquely
  // identifies Bob (vertex 1 in our 0-indexed reconstruction). The
  // neighbour-degree-sequence measure is at least that precise.
  const Graph g = Figure1Graph();
  const auto candidates =
      CandidateSet(g, NeighborDegreeSequenceMeasure(), 1);
  EXPECT_EQ(candidates, (std::vector<VertexId>{1}));
}

TEST(ReidentificationTest, PerfectMeasureScoresOne) {
  const Graph g = Figure1Graph();
  const VertexPartition orbits = ComputeAutomorphismPartition(g, {}, nullptr);
  const ReidentificationStats stats = CompareToOrbits(orbits, orbits);
  EXPECT_DOUBLE_EQ(stats.r_f, 1.0);
  EXPECT_DOUBLE_EQ(stats.s_f, 1.0);
}

TEST(ReidentificationTest, WeakMeasureScoresLow) {
  // The unit partition has no singletons and maximal pair count.
  const Graph g = Figure1Graph();
  const VertexPartition orbits = ComputeAutomorphismPartition(g, {}, nullptr);
  const VertexPartition unit = VertexPartition::FromCells(
      g.NumVertices(), {{0, 1, 2, 3, 4, 5, 6, 7}});
  const ReidentificationStats stats = CompareToOrbits(unit, orbits);
  EXPECT_DOUBLE_EQ(stats.r_f, 0.0);
  EXPECT_LT(stats.s_f, 0.2);
}

TEST(ReidentificationTest, StatsAreInUnitInterval) {
  Rng rng(127);
  const Graph g = ErdosRenyiGnm(50, 90, rng);
  const VertexPartition orbits = ComputeAutomorphismPartition(g, {}, nullptr);
  for (const auto& measure :
       {DegreeMeasure(), TriangleMeasure(), CombinedMeasure()}) {
    const ReidentificationStats stats = EvaluateMeasure(g, measure, orbits);
    EXPECT_GE(stats.r_f, 0.0);
    EXPECT_LE(stats.r_f, 1.0);
    EXPECT_GE(stats.s_f, 0.0);
    EXPECT_LE(stats.s_f, 1.0);
  }
}

TEST(ReidentificationTest, CombinedDominatesSingleMeasures) {
  // The monotonicity behind Figure 2: refining knowledge can only increase
  // re-identification power.
  Rng rng(131);
  const Graph g = BarabasiAlbert(80, 2, rng);
  const VertexPartition orbits = ComputeAutomorphismPartition(g, {}, nullptr);
  const auto deg = EvaluateMeasure(g, DegreeMeasure(), orbits);
  const auto tri = EvaluateMeasure(g, TriangleMeasure(), orbits);
  const auto combined = EvaluateMeasure(g, CombinedMeasure(), orbits);
  EXPECT_GE(combined.r_f, deg.r_f);
  EXPECT_GE(combined.r_f, tri.r_f);
  EXPECT_GE(combined.s_f, deg.s_f);
  EXPECT_GE(combined.s_f, tri.s_f);
}

TEST(ReidentificationTest, KSymmetricGraphResistsAllMeasures) {
  // After k-symmetry anonymization no measure has any unique
  // re-identification power, and every candidate set has >= k members.
  const Graph g = Figure1Graph();
  AnonymizationOptions options;
  options.k = 3;
  const auto release = Anonymize(g, options);
  ASSERT_TRUE(release.ok());
  for (const auto& measure :
       {DegreeMeasure(), TriangleMeasure(), NeighborDegreeSequenceMeasure(),
        NeighborhoodMeasure(), CombinedMeasure()}) {
    const VertexPartition p = PartitionByMeasure(release->graph, measure);
    for (const auto& cell : p.cells) {
      EXPECT_GE(cell.size(), 3u) << measure.name;
    }
  }
}

}  // namespace
}  // namespace ksym
