// Tests for the orbit copying operation (Definition 3, Lemmas 1-3), and
// the base-plus-delta OrbitCopy against a whole-graph reference.

#include "ksym/orbit_copy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "aut/isomorphism.h"
#include "aut/orbits.h"
#include "common/rng.h"
#include "graph/generators.h"
#include "ksym/verifier.h"

namespace ksym {
namespace {

// The running example of the paper's Figure 3(a): orbits
// V1 = {v1,v2}, V2 = {v3}, V3 = {v4,v5}, V4 = {v6,v7}, V5 = {v8}
// (1-indexed); 0-indexed: {0,1}, {2}, {3,4}, {5,6}, {7}.
Graph Figure3Graph() {
  GraphBuilder b(8);
  b.AddEdge(0, 2);  // v1-v3
  b.AddEdge(1, 2);  // v2-v3
  b.AddEdge(2, 3);  // v3-v4
  b.AddEdge(2, 4);  // v3-v5
  b.AddEdge(3, 5);  // v4-v6
  b.AddEdge(4, 6);  // v5-v7
  b.AddEdge(5, 7);  // v6-v8
  b.AddEdge(6, 7);  // v7-v8
  b.AddEdge(3, 4);  // v4-v5 (the orbit has an internal edge)
  return b.Build();
}

TEST(OrbitCopyTest, Figure3OrbitsAreAsInThePaper) {
  const VertexPartition orbits = ComputeAutomorphismPartition(Figure3Graph(), {}, nullptr);
  ASSERT_EQ(orbits.NumCells(), 5u);
  EXPECT_EQ(orbits.cells[0], (std::vector<VertexId>{0, 1}));
  EXPECT_EQ(orbits.cells[1], (std::vector<VertexId>{2}));
  EXPECT_EQ(orbits.cells[2], (std::vector<VertexId>{3, 4}));
  EXPECT_EQ(orbits.cells[3], (std::vector<VertexId>{5, 6}));
  EXPECT_EQ(orbits.cells[4], (std::vector<VertexId>{7}));
}

TEST(OrbitCopyTest, CopyingV3MatchesFigure3b) {
  // Copying V3 = {v4, v5} introduces v4', v5' with edges to v3 (external),
  // v6/v7 (external) and the mirrored internal edge v4'-v5'.
  const Graph g = Figure3Graph();
  const VertexPartition orbits = ComputeAutomorphismPartition(g, {}, nullptr);
  ReleaseDelta delta(g.NumVertices());
  TrackedPartition partition(orbits);
  const auto copies = OrbitCopy(g, delta, partition, 2, orbits.cells[2]);
  ASSERT_EQ(copies.size(), 2u);
  const VertexId v4c = copies[0];
  const VertexId v5c = copies[1];
  const Graph result = ReleasedGraph(g, delta);
  EXPECT_EQ(result.NumVertices(), 10u);
  // External adjacency preserved exactly (rule 1).
  EXPECT_TRUE(result.HasEdge(v4c, 2));
  EXPECT_TRUE(result.HasEdge(v5c, 2));
  EXPECT_TRUE(result.HasEdge(v4c, 5));
  EXPECT_TRUE(result.HasEdge(v5c, 6));
  // Internal edge mirrored between copies (rule 2).
  EXPECT_TRUE(result.HasEdge(v4c, v5c));
  // No edges between copies and originals of the cell.
  EXPECT_FALSE(result.HasEdge(v4c, 3));
  EXPECT_FALSE(result.HasEdge(v4c, 4));
  EXPECT_FALSE(result.HasEdge(v5c, 3));
  EXPECT_FALSE(result.HasEdge(v5c, 4));
  // 4 vertices in the augmented cell.
  EXPECT_EQ(partition.Cell(2).size(), 4u);
}

TEST(OrbitCopyTest, ResultIsSubAutomorphismPartition) {
  // Lemma 1: after one copy, the augmented partition is a (cell-wise)
  // sub-automorphism partition of the new graph.
  const Graph g = Figure3Graph();
  const VertexPartition orbits = ComputeAutomorphismPartition(g, {}, nullptr);
  for (uint32_t cell = 0; cell < orbits.NumCells(); ++cell) {
    ReleaseDelta delta(g.NumVertices());
    TrackedPartition partition(orbits);
    OrbitCopy(g, delta, partition, cell, orbits.cells[cell]);
    EXPECT_TRUE(IsCellwiseSubAutomorphismPartition(
        ReleasedGraph(g, delta), partition.ToVertexPartition()))
        << "cell " << cell;
  }
}

TEST(OrbitCopyTest, RepeatedCopiesKeepProperty) {
  // Lemma 2: N copies of the same cell.
  const Graph g = Figure3Graph();
  const VertexPartition orbits = ComputeAutomorphismPartition(g, {}, nullptr);
  ReleaseDelta delta(g.NumVertices());
  TrackedPartition partition(orbits);
  for (int rep = 0; rep < 3; ++rep) {
    OrbitCopy(g, delta, partition, 0, orbits.cells[0]);
  }
  EXPECT_EQ(partition.Cell(0).size(), 8u);
  EXPECT_TRUE(IsCellwiseSubAutomorphismPartition(
      ReleasedGraph(g, delta), partition.ToVertexPartition()));
}

TEST(OrbitCopyTest, OrderIndependenceUpToIsomorphism) {
  // Lemma 3: applying the same multiset of copy operations in different
  // orders yields isomorphic graphs.
  const Graph g = Figure3Graph();
  const VertexPartition orbits = ComputeAutomorphismPartition(g, {}, nullptr);

  ReleaseDelta d1(g.NumVertices());
  TrackedPartition p1(orbits);
  OrbitCopy(g, d1, p1, 0, orbits.cells[0]);
  OrbitCopy(g, d1, p1, 2, orbits.cells[2]);
  OrbitCopy(g, d1, p1, 4, orbits.cells[4]);

  ReleaseDelta d2(g.NumVertices());
  TrackedPartition p2(orbits);
  OrbitCopy(g, d2, p2, 4, orbits.cells[4]);
  OrbitCopy(g, d2, p2, 2, orbits.cells[2]);
  OrbitCopy(g, d2, p2, 0, orbits.cells[0]);

  EXPECT_TRUE(AreIsomorphic(ReleasedGraph(g, d1), ReleasedGraph(g, d2)));
}

TEST(OrbitCopyTest, CopyCountsDegreesPreserved) {
  // Every copy has the same degree as its original.
  const Graph g = Figure3Graph();
  const VertexPartition orbits = ComputeAutomorphismPartition(g, {}, nullptr);
  ReleaseDelta delta(g.NumVertices());
  TrackedPartition partition(orbits);
  const auto copies = OrbitCopy(g, delta, partition, 2, orbits.cells[2]);
  const Graph result = ReleasedGraph(g, delta);
  for (size_t i = 0; i < copies.size(); ++i) {
    EXPECT_EQ(result.Degree(copies[i]), g.Degree(orbits.cells[2][i]));
  }
}

TEST(OrbitCopyTest, SingletonCellCopy) {
  // Copying a singleton orbit duplicates the vertex with its exact
  // neighbourhood (the star-leaf case).
  const Graph star = MakeStar(4);  // Hub 0; leaves 1, 2, 3.
  const VertexPartition orbits = ComputeAutomorphismPartition(star, {}, nullptr);
  // Orbits: {0}, {1,2,3}.
  ReleaseDelta delta(star.NumVertices());
  TrackedPartition partition(orbits);
  const uint32_t hub_cell = orbits.cell_of[0];
  const auto copies =
      OrbitCopy(star, delta, partition, hub_cell, orbits.cells[hub_cell]);
  const Graph result = ReleasedGraph(star, delta);
  ASSERT_EQ(copies.size(), 1u);
  EXPECT_EQ(result.Degree(copies[0]), 3u);  // Mirrors the hub.
  for (VertexId leaf : {1u, 2u, 3u}) {
    EXPECT_TRUE(result.HasEdge(copies[0], leaf));
  }
}

TEST(TrackedPartitionTest, ProvenanceCollapsesToOriginals) {
  const Graph g = MakeStar(3);
  const VertexPartition orbits = ComputeAutomorphismPartition(g, {}, nullptr);
  ReleaseDelta delta(g.NumVertices());
  TrackedPartition partition(orbits);
  const uint32_t leaf_cell = orbits.cell_of[1];
  const auto first =
      OrbitCopy(g, delta, partition, leaf_cell, orbits.cells[leaf_cell]);
  // Copy the copies' cell again using originals as unit.
  const auto second =
      OrbitCopy(g, delta, partition, leaf_cell, orbits.cells[leaf_cell]);
  for (VertexId v : first) {
    EXPECT_FALSE(partition.IsOriginal(v));
    EXPECT_TRUE(partition.IsOriginal(partition.OriginalOf(v)));
  }
  for (VertexId v : second) {
    EXPECT_TRUE(partition.IsOriginal(partition.OriginalOf(v)));
  }
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    EXPECT_TRUE(partition.IsOriginal(v));
  }
}

// ---------------------------------------------------------------------------
// Reference: Ocp over a MutableGraph holding the whole growing graph. Every
// neighbour of a unit vertex is in one list, so this is Definition 3
// verbatim; OrbitCopy must produce the same graph and partition from the
// untouched base plus a ReleaseDelta.
// ---------------------------------------------------------------------------

std::vector<VertexId> ReferenceOrbitCopy(MutableGraph& graph,
                                         TrackedPartition& partition,
                                         uint32_t cell_index,
                                         std::span<const VertexId> unit) {
  std::vector<VertexId> copies;
  for (VertexId v : unit) {
    const VertexId v_copy = graph.AddVertex();
    partition.AddCopy(v_copy, cell_index, v);
    copies.push_back(v_copy);
  }
  const auto copy_of = [&unit, &copies](VertexId u) {
    const auto it = std::lower_bound(unit.begin(), unit.end(), u);
    KSYM_CHECK(it != unit.end() && *it == u);
    return copies[static_cast<size_t>(it - unit.begin())];
  };
  for (size_t i = 0; i < unit.size(); ++i) {
    const VertexId v = unit[i];
    const VertexId v_copy = copies[i];
    for (VertexId u : graph.Neighbors(v)) {
      if (partition.CellOf(u) != cell_index) {
        graph.AddEdge(u, v_copy);  // Rule 1.
      } else {
        const VertexId u_copy = copy_of(u);  // Rule 2.
        if (v < u) graph.AddEdge(v_copy, u_copy);
      }
    }
  }
  return copies;
}

/// One Ocp application: the cell and the (sorted, intra-cell closed) unit.
using CopyStep = std::pair<uint32_t, std::vector<VertexId>>;

/// Runs `steps` through OrbitCopy + ReleasedGraph and through the
/// reference, and checks identical CSR arrays, cells, provenance and
/// returned copy ids.
void ExpectMatchesReference(const Graph& g, const VertexPartition& initial,
                            const std::vector<CopyStep>& steps) {
  MutableGraph reference(g);
  TrackedPartition reference_partition(initial);
  ReleaseDelta delta(g.NumVertices());
  TrackedPartition partition(initial);
  for (const auto& [cell, unit] : steps) {
    const auto expected =
        ReferenceOrbitCopy(reference, reference_partition, cell, unit);
    EXPECT_EQ(OrbitCopy(g, delta, partition, cell, unit), expected)
        << "cell " << cell;
  }
  const Graph expected = reference.Freeze();
  const Graph actual = ReleasedGraph(g, delta);
  EXPECT_TRUE(std::ranges::equal(actual.RawOffsets(), expected.RawOffsets()));
  EXPECT_TRUE(
      std::ranges::equal(actual.RawNeighbors(), expected.RawNeighbors()));
  EXPECT_EQ(delta.added_edges(), reference.NumEdges() - g.NumEdges());
  ASSERT_EQ(partition.NumVertices(), reference_partition.NumVertices());
  ASSERT_EQ(partition.NumCells(), reference_partition.NumCells());
  for (uint32_t c = 0; c < partition.NumCells(); ++c) {
    EXPECT_EQ(partition.Cell(c), reference_partition.Cell(c)) << "cell " << c;
  }
  for (VertexId v = 0; v < partition.NumVertices(); ++v) {
    EXPECT_EQ(partition.OriginalOf(v), reference_partition.OriginalOf(v));
  }
}

/// The connected components of G[cell], each sorted — the units
/// MinimalCopyUnit chooses from (any union of them is intra-cell closed).
std::vector<std::vector<VertexId>> CellComponents(
    const Graph& g, const VertexPartition& partition, uint32_t cell) {
  std::vector<std::vector<VertexId>> components;
  std::vector<bool> seen(g.NumVertices(), false);
  for (VertexId start : partition.cells[cell]) {
    if (seen[start]) continue;
    std::vector<VertexId> component{start};
    seen[start] = true;
    for (size_t head = 0; head < component.size(); ++head) {
      for (VertexId u : g.Neighbors(component[head])) {
        if (partition.cell_of[u] == cell && !seen[u]) {
          seen[u] = true;
          component.push_back(u);
        }
      }
    }
    std::sort(component.begin(), component.end());
    components.push_back(std::move(component));
  }
  return components;
}

/// Figure 3, a sparse ER graph (isolated vertices and edges: cells with
/// many components and intra-cell edges) and a BA tree (sibling leaves).
std::vector<Graph> ReferenceInputs() {
  Rng rng(7);
  std::vector<Graph> graphs;
  graphs.push_back(Figure3Graph());
  graphs.push_back(ErdosRenyiGnm(120, 90, rng));
  graphs.push_back(BarabasiAlbert(150, 1, rng));
  return graphs;
}

TEST(OrbitCopyReferenceTest, WholeCellsInBothOrders) {
  for (const Graph& g : ReferenceInputs()) {
    const VertexPartition orbits = ComputeAutomorphismPartition(g, {}, nullptr);
    std::vector<CopyStep> steps;
    for (uint32_t cell = 0; cell < orbits.NumCells(); ++cell) {
      steps.emplace_back(cell, orbits.cells[cell]);
    }
    ExpectMatchesReference(g, orbits, steps);
    std::reverse(steps.begin(), steps.end());
    ExpectMatchesReference(g, orbits, steps);
  }
}

TEST(OrbitCopyReferenceTest, ComponentUnits) {
  for (const Graph& g : ReferenceInputs()) {
    const VertexPartition orbits = ComputeAutomorphismPartition(g, {}, nullptr);
    std::vector<CopyStep> steps;
    for (uint32_t cell = 0; cell < orbits.NumCells(); ++cell) {
      // One component per operation, twice over, as the vertex-minimal
      // anonymizer copies its unit until the cell reaches k.
      const auto components = CellComponents(g, orbits, cell);
      for (int rep = 0; rep < 2; ++rep) {
        steps.emplace_back(cell, components.front());
      }
      if (components.size() > 1) steps.emplace_back(cell, components.back());
    }
    ExpectMatchesReference(g, orbits, steps);
  }
}

TEST(OrbitCopyReferenceTest, RepeatedCopiesOfOneCellInterleaved) {
  for (const Graph& g : ReferenceInputs()) {
    const VertexPartition orbits = ComputeAutomorphismPartition(g, {}, nullptr);
    // The largest cell, copied three times around copies of every other
    // cell, so its members' delta rows are non-empty on the later copies.
    uint32_t largest = 0;
    for (uint32_t cell = 0; cell < orbits.NumCells(); ++cell) {
      if (orbits.cells[cell].size() > orbits.cells[largest].size()) {
        largest = cell;
      }
    }
    std::vector<CopyStep> steps;
    steps.emplace_back(largest, orbits.cells[largest]);
    for (uint32_t cell = 0; cell < orbits.NumCells(); ++cell) {
      if (cell != largest) steps.emplace_back(cell, orbits.cells[cell]);
    }
    steps.emplace_back(largest, orbits.cells[largest]);
    steps.emplace_back(largest, orbits.cells[largest]);
    ExpectMatchesReference(g, orbits, steps);
  }
}

}  // namespace
}  // namespace ksym
