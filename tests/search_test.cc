// Validates the individualization-refinement automorphism search against
// graph families with closed-form automorphism groups, against brute force
// on small graphs, and against a reference searcher on twin-heavy families.

#include "aut/search.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>

#include "aut/orbits.h"
#include "aut/refinement.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "perm/permutation.h"
#include "perm/schreier_sims.h"
#include "perm/union_find.h"

namespace ksym {
namespace {

// The searcher as it stood before the twin quotient and the O(n + m) leaf
// certificate: IR search on the whole graph, and a leaf is an automorphism
// iff its relabelled, sorted edge list equals the first leaf's. The logic
// is unchanged; it is the reference the production search is checked
// against.
namespace reference {

void RelabeledEdgesInto(const Graph& graph, const Permutation& lab,
                        std::vector<std::pair<VertexId, VertexId>>& edges) {
  edges.clear();
  edges.reserve(graph.NumEdges());
  graph.ForEachEdge([&lab, &edges](VertexId u, VertexId v) {
    const VertexId lu = lab.Image(u);
    const VertexId lv = lab.Image(v);
    edges.emplace_back(std::min(lu, lv), std::max(lu, lv));
  });
  std::sort(edges.begin(), edges.end());
}

class AutSearcher {
 public:
  AutSearcher(const Graph& graph, const std::vector<uint32_t>& colors)
      : graph_(graph),
        n_(graph.NumVertices()),
        colors_(colors),
        refiner_(graph, nullptr),
        global_orbits_(n_) {}

  AutomorphismResult Run() {
    if (n_ > 0) {
      OrderedPartition root(n_, colors_);
      refiner_.RefineAll(root);
      Explore(root, /*depth=*/0, /*on_first_path=*/true);
    }

    AutomorphismResult result;
    result.generators = std::move(generators_);
    result.nodes = nodes_;
    result.orbit_rep.resize(n_);
    std::vector<VertexId> min_of_root(n_, kInvalidVertex);
    for (VertexId v = 0; v < n_; ++v) {
      const uint32_t r = global_orbits_.Find(v);
      if (min_of_root[r] == kInvalidVertex) min_of_root[r] = v;
    }
    for (VertexId v = 0; v < n_; ++v) {
      result.orbit_rep[v] = min_of_root[global_orbits_.Find(v)];
    }
    return result;
  }

 private:
  enum class Outcome { kContinue, kAutFound };

  Outcome Explore(OrderedPartition& p, size_t depth, bool on_first_path) {
    ++nodes_;
    if (p.IsDiscrete()) return HandleLeaf(p);

    const uint32_t target = p.TargetCell();
    std::vector<VertexId> children;
    if (on_first_path) {
      const auto cell_span = p.CellAt(target);
      children.assign(cell_span.begin(), cell_span.end());
      std::sort(children.begin(), children.end());
    }
    std::vector<VertexId> tried;
    bool is_leftmost_child = true;

    size_t cursor = 0;
    while (true) {
      VertexId v = kInvalidVertex;
      if (on_first_path) {
        for (; cursor < children.size(); ++cursor) {
          bool redundant = false;
          for (VertexId w : tried) {
            if (global_orbits_.Same(children[cursor], w)) {
              redundant = true;
              break;
            }
          }
          if (!redundant) break;
        }
        if (cursor == children.size()) break;
        v = children[cursor++];
      } else {
        for (VertexId candidate : p.CellAt(target)) {
          if (std::find(tried.begin(), tried.end(), candidate) ==
              tried.end()) {
            v = candidate;
            break;
          }
        }
        if (v == kInvalidVertex) break;
      }
      tried.push_back(v);

      const size_t mark = p.JournalMark();
      const uint32_t singleton = p.Individualize(v);
      const uint64_t inv = refiner_.RefineFrom(p, singleton);

      bool pruned = false;
      if (!have_first_) {
        first_inv_.push_back(inv);
      } else if (depth >= first_inv_.size() || inv != first_inv_[depth]) {
        pruned = true;
      }

      Outcome outcome = Outcome::kContinue;
      if (!pruned) {
        outcome = Explore(p, depth + 1, on_first_path && is_leftmost_child);
      }
      p.RevertTo(mark);
      is_leftmost_child = false;
      if (outcome == Outcome::kAutFound && !on_first_path) {
        return Outcome::kAutFound;
      }
    }
    return Outcome::kContinue;
  }

  Outcome HandleLeaf(const OrderedPartition& p) {
    Permutation lab = p.ToLabeling();
    std::vector<std::pair<VertexId, VertexId>>& edges = leaf_edges_;
    RelabeledEdgesInto(graph_, lab, edges);
    if (!have_first_) {
      have_first_ = true;
      first_labeling_ = std::move(lab);
      first_edges_ = std::move(edges);
      return Outcome::kContinue;
    }
    if (edges == first_edges_) {
      Permutation g = lab.Compose(first_labeling_.Inverse());
      if (!g.IsIdentity()) {
        for (VertexId x = 0; x < n_; ++x) global_orbits_.Union(x, g.Image(x));
        generators_.push_back(std::move(g));
        return Outcome::kAutFound;
      }
    }
    return Outcome::kContinue;
  }

  const Graph& graph_;
  const VertexId n_;
  const std::vector<uint32_t>& colors_;
  Refiner refiner_;

  bool have_first_ = false;
  std::vector<uint64_t> first_inv_;
  Permutation first_labeling_;
  std::vector<std::pair<VertexId, VertexId>> first_edges_;
  std::vector<std::pair<VertexId, VertexId>> leaf_edges_;

  std::vector<Permutation> generators_;
  UnionFind global_orbits_;
  uint64_t nodes_ = 0;
};

}  // namespace reference

double AutOrder(const Graph& graph) {
  const AutomorphismResult aut = ComputeAutomorphisms(graph, {}, nullptr);
  return GroupOrderFromGenerators(graph.NumVertices(), aut.generators);
}

void ExpectValidGenerators(const Graph& graph) {
  const AutomorphismResult aut = ComputeAutomorphisms(graph, {}, nullptr);
  for (const Permutation& g : aut.generators) {
    EXPECT_TRUE(IsAutomorphism(graph, g)) << g.ToCycleString();
  }
}

double Factorial(size_t n) {
  double f = 1.0;
  for (size_t i = 2; i <= n; ++i) f *= static_cast<double>(i);
  return f;
}

TEST(AutSearchTest, EmptyAndTrivialGraphs) {
  EXPECT_EQ(ComputeAutomorphisms(Graph(0), {}, nullptr).generators.size(), 0u);
  EXPECT_EQ(AutOrder(Graph(1)), 1.0);
  EXPECT_EQ(AutOrder(Graph(4)), Factorial(4));  // 4 isolated vertices.
}

TEST(AutSearchTest, PathGraphHasOrderTwo) {
  for (size_t n : {2, 3, 5, 10, 31}) {
    EXPECT_EQ(AutOrder(MakePath(n)), 2.0) << "P_" << n;
  }
}

TEST(AutSearchTest, CycleGraphHasDihedralGroup) {
  for (size_t n : {3, 4, 5, 6, 9, 12, 20}) {
    EXPECT_EQ(AutOrder(MakeCycle(n)), 2.0 * static_cast<double>(n))
        << "C_" << n;
  }
}

TEST(AutSearchTest, CompleteGraphHasSymmetricGroup) {
  for (size_t n : {2, 3, 4, 5, 6, 7, 8}) {
    EXPECT_EQ(AutOrder(MakeComplete(n)), Factorial(n)) << "K_" << n;
  }
}

TEST(AutSearchTest, StarGraphFixesHub) {
  for (size_t n : {3, 4, 6, 10, 25}) {
    EXPECT_EQ(AutOrder(MakeStar(n)), Factorial(n - 1)) << "K_{1," << n - 1
                                                       << "}";
  }
}

TEST(AutSearchTest, CompleteBipartite) {
  EXPECT_EQ(AutOrder(MakeCompleteBipartite(2, 3)),
            Factorial(2) * Factorial(3));
  EXPECT_EQ(AutOrder(MakeCompleteBipartite(3, 3)),
            2.0 * Factorial(3) * Factorial(3));
  EXPECT_EQ(AutOrder(MakeCompleteBipartite(4, 2)),
            Factorial(4) * Factorial(2));
}

TEST(AutSearchTest, HypercubeGroup) {
  // |Aut(Q_d)| = 2^d * d!.
  EXPECT_EQ(AutOrder(MakeHypercube(1)), 2.0);
  EXPECT_EQ(AutOrder(MakeHypercube(2)), 8.0);
  EXPECT_EQ(AutOrder(MakeHypercube(3)), 48.0);
  EXPECT_EQ(AutOrder(MakeHypercube(4)), 384.0);
}

TEST(AutSearchTest, PetersenGraphHasOrder120) {
  EXPECT_EQ(AutOrder(MakePetersen()), 120.0);
}

TEST(AutSearchTest, GridGraph) {
  // Rectangular m x n grid (m != n): |Aut| = 4 (Klein four-group);
  // square n x n: |Aut| = 8 (dihedral).
  EXPECT_EQ(AutOrder(MakeGrid(2, 5)), 4.0);
  EXPECT_EQ(AutOrder(MakeGrid(3, 4)), 4.0);
  EXPECT_EQ(AutOrder(MakeGrid(3, 3)), 8.0);
  EXPECT_EQ(AutOrder(MakeGrid(4, 4)), 8.0);
}

TEST(AutSearchTest, BalancedTree) {
  // Complete binary tree of depth 2: root fixed; each internal vertex's two
  // leaves swap (2^2), the two subtrees swap (2): 2^3 = 8.
  EXPECT_EQ(AutOrder(MakeBalancedTree(2, 2)), 8.0);
  // Depth-3 binary: 2^7 * ... : |Aut| = product over internal nodes of
  // (children subtree permutations): for complete binary depth 3 it is
  // 2^(1+2+4) = 128.
  EXPECT_EQ(AutOrder(MakeBalancedTree(2, 3)), 128.0);
  // Ternary depth 2: (3!)^(1+3) = 6^4 = 1296.
  EXPECT_EQ(AutOrder(MakeBalancedTree(3, 2)), 1296.0);
}

TEST(AutSearchTest, DisjointUnionOfIsomorphicComponentsMultiplies) {
  const Graph two_triangles = DisjointUnion(MakeCycle(3), MakeCycle(3));
  // Each triangle contributes S_3 (order 6); swapping the triangles doubles:
  // 6 * 6 * 2 = 72.
  EXPECT_EQ(AutOrder(two_triangles), 72.0);
}

TEST(AutSearchTest, GeneratorsAreAlwaysAutomorphisms) {
  ExpectValidGenerators(MakePetersen());
  ExpectValidGenerators(MakeHypercube(3));
  ExpectValidGenerators(MakeGrid(3, 4));
  Rng rng(7);
  ExpectValidGenerators(ErdosRenyiGnm(60, 120, rng));
  ExpectValidGenerators(BarabasiAlbert(80, 2, rng));
}

TEST(AutSearchTest, AsymmetricGraphHasTrivialGroup) {
  // The smallest asymmetric tree: a spider with legs of lengths 1, 2, 3.
  GraphBuilder builder(7);
  builder.AddEdge(0, 1);  // Leg of length 1.
  builder.AddEdge(0, 2);  // Leg of length 2.
  builder.AddEdge(2, 3);
  builder.AddEdge(0, 4);  // Leg of length 3.
  builder.AddEdge(4, 5);
  builder.AddEdge(5, 6);
  const Graph g = builder.Build();
  EXPECT_EQ(AutOrder(g), 1.0);
}

TEST(AutSearchTest, ColoredSearchRestrictsGroup) {
  // C_6 has |Aut| = 12; colouring vertices alternately restricts to the
  // subgroup preserving colours: rotations by even steps and reflections
  // fixing the classes — order 6 (dihedral on 3 elements).
  const Graph c6 = MakeCycle(6);
  const std::vector<uint32_t> colors = {0, 1, 0, 1, 0, 1};
  const AutomorphismResult aut = ComputeAutomorphisms(c6, colors, nullptr);
  for (const Permutation& g : aut.generators) {
    EXPECT_TRUE(IsAutomorphism(c6, g));
    for (VertexId v = 0; v < 6; ++v) {
      EXPECT_EQ(colors[v], colors[g.Image(v)]);
    }
  }
  EXPECT_EQ(GroupOrderFromGenerators(6, aut.generators), 6.0);
}

TEST(AutSearchTest, OrbitRepsMatchGroupOrbits) {
  const Graph g = MakeStar(6);
  const AutomorphismResult aut = ComputeAutomorphisms(g, {}, nullptr);
  // Hub (vertex 0) alone; leaves 1..5 together.
  EXPECT_EQ(aut.orbit_rep[0], 0u);
  for (VertexId v = 1; v < 6; ++v) EXPECT_EQ(aut.orbit_rep[v], 1u);
}

TEST(AutSearchTest, OrbitsOfPetersenAreVertexTransitive) {
  const AutomorphismResult aut = ComputeAutomorphisms(MakePetersen(), {}, nullptr);
  for (VertexId v = 0; v < 10; ++v) EXPECT_EQ(aut.orbit_rep[v], 0u);
}

// ---------------------------------------------------------------------------
// Twin quotient and leaf certificate against the reference searcher.

// |Aut(G, colors)| by trying all n! permutations (n <= 8).
double BruteForceAutOrder(const Graph& graph,
                          const std::vector<uint32_t>& colors) {
  const size_t n = graph.NumVertices();
  std::vector<VertexId> images(n);
  std::iota(images.begin(), images.end(), 0u);
  double count = 0;
  do {
    bool ok = true;
    for (VertexId v = 0; v < n && ok; ++v) {
      if (!colors.empty() && colors[v] != colors[images[v]]) ok = false;
    }
    graph.ForEachEdge([&](VertexId u, VertexId v) {
      if (ok && !graph.HasEdge(images[u], images[v])) ok = false;
    });
    if (ok) count += 1;
  } while (std::next_permutation(images.begin(), images.end()));
  return count;
}

// Checks the production search against the reference on one input: same
// orbits, same group order, and every generator a colour-preserving
// automorphism. With `brute_force`, also checks |Aut| by enumeration.
void ExpectMatchesReference(const Graph& graph,
                            const std::vector<uint32_t>& colors,
                            const std::string& label,
                            bool brute_force = false) {
  SCOPED_TRACE(label);
  const size_t n = graph.NumVertices();
  const AutomorphismResult got = ComputeAutomorphisms(graph, colors, nullptr);
  const AutomorphismResult want = reference::AutSearcher(graph, colors).Run();
  EXPECT_EQ(got.orbit_rep, want.orbit_rep);
  const double order = GroupOrderFromGenerators(n, got.generators);
  EXPECT_EQ(order, GroupOrderFromGenerators(n, want.generators));
  if (brute_force) {
    EXPECT_EQ(order, BruteForceAutOrder(graph, colors));
  }
  for (const Permutation& g : got.generators) {
    EXPECT_TRUE(IsAutomorphism(graph, g)) << g.ToCycleString();
    for (VertexId v = 0; v < n && !colors.empty(); ++v) {
      EXPECT_EQ(colors[v], colors[g.Image(v)]) << g.ToCycleString();
    }
  }
}

// Two adjacent hubs with `a` and `b` pendant leaves.
Graph MakeDoubleStar(size_t a, size_t b) {
  GraphBuilder builder(2 + a + b);
  builder.AddEdge(0, 1);
  for (size_t i = 0; i < a; ++i) builder.AddEdge(0, static_cast<VertexId>(2 + i));
  for (size_t i = 0; i < b; ++i) {
    builder.AddEdge(1, static_cast<VertexId>(2 + a + i));
  }
  return builder.Build();
}

// `pairs` disjoint K2s followed by `isolated` isolated vertices.
Graph MakeMatchingPlusIsolated(size_t pairs, size_t isolated) {
  GraphBuilder builder(2 * pairs + isolated);
  for (size_t i = 0; i < pairs; ++i) {
    builder.AddEdge(static_cast<VertexId>(2 * i), static_cast<VertexId>(2 * i + 1));
  }
  return builder.Build();
}

// A random base graph whose vertices are blown up into classes of 1 to
// `max_class` twins: a class is a clique (true twins) or independent (false
// twins) at random, classes of adjacent base vertices are joined
// completely, and the vertex ids are shuffled so classes are not
// contiguous.
Graph MakeTwinBlowUp(size_t base_n, size_t base_m, size_t max_class,
                     Rng& rng) {
  const Graph base = ErdosRenyiGnm(base_n, base_m, rng);
  std::vector<std::vector<VertexId>> classes(base_n);
  VertexId next = 0;
  for (auto& members : classes) {
    const size_t size = 1 + rng.NextBounded(max_class);
    for (size_t i = 0; i < size; ++i) members.push_back(next++);
  }
  std::vector<VertexId> relabel(next);
  std::iota(relabel.begin(), relabel.end(), 0u);
  std::shuffle(relabel.begin(), relabel.end(), rng);
  GraphBuilder builder(next);
  for (const auto& members : classes) {
    if (!rng.NextBernoulli(0.5)) continue;  // False twins: no inner edges.
    for (size_t i = 0; i < members.size(); ++i) {
      for (size_t j = i + 1; j < members.size(); ++j) {
        builder.AddEdge(relabel[members[i]], relabel[members[j]]);
      }
    }
  }
  base.ForEachEdge([&](VertexId a, VertexId b) {
    for (VertexId x : classes[a]) {
      for (VertexId y : classes[b]) builder.AddEdge(relabel[x], relabel[y]);
    }
  });
  return builder.Build();
}

std::vector<uint32_t> RandomColors(size_t n, uint32_t num_colors, Rng& rng) {
  std::vector<uint32_t> colors(n);
  for (auto& c : colors) c = static_cast<uint32_t>(rng.NextBounded(num_colors));
  return colors;
}

TEST(TwinQuotientTest, StarsAndDoubleStars) {
  for (size_t n : {2, 3, 5, 9, 17}) {
    ExpectMatchesReference(MakeStar(n), {}, "star " + std::to_string(n),
                           n <= 8);
  }
  for (auto [a, b] : {std::pair<size_t, size_t>{1, 1}, {2, 2}, {3, 3},
                      {2, 4}, {5, 5}, {0, 3}}) {
    const Graph g = MakeDoubleStar(a, b);
    ExpectMatchesReference(
        g, {}, "double star " + std::to_string(a) + "," + std::to_string(b),
        g.NumVertices() <= 8);
  }
}

TEST(TwinQuotientTest, CompleteAndCompleteBipartite) {
  for (size_t n : {1, 2, 3, 6, 8, 12}) {
    ExpectMatchesReference(MakeComplete(n), {}, "K_" + std::to_string(n),
                           n <= 8);
  }
  for (auto [a, b] : {std::pair<size_t, size_t>{1, 1}, {2, 2}, {2, 3},
                      {3, 3}, {4, 4}, {3, 7}}) {
    const Graph g = MakeCompleteBipartite(a, b);
    ExpectMatchesReference(
        g, {}, "K_" + std::to_string(a) + "," + std::to_string(b),
        g.NumVertices() <= 8);
  }
}

TEST(TwinQuotientTest, DisjointEdgesPlusIsolatedVertices) {
  // With as many isolated vertices as one K2 has ends, an open and a
  // closed twin class have the same colour and size: only the twin type
  // keeps Q from swapping them.
  for (auto [pairs, isolated] : {std::pair<size_t, size_t>{1, 2}, {2, 2},
                                 {3, 2}, {1, 0}, {4, 0}, {0, 5}, {3, 1},
                                 {2, 4}, {6, 3}}) {
    const Graph g = MakeMatchingPlusIsolated(pairs, isolated);
    ExpectMatchesReference(g, {},
                           std::to_string(pairs) + " K2 + " +
                               std::to_string(isolated) + " K1",
                           g.NumVertices() <= 8);
  }
}

TEST(TwinQuotientTest, RandomTwinBlowUps) {
  Rng rng(2026);
  for (int trial = 0; trial < 40; ++trial) {
    const size_t base_n = 3 + rng.NextBounded(10);
    const size_t base_m = rng.NextBounded(base_n * (base_n - 1) / 2 + 1);
    const Graph g = MakeTwinBlowUp(base_n, base_m, 4, rng);
    ExpectMatchesReference(g, {}, "blow-up trial " + std::to_string(trial));
  }
}

TEST(TwinQuotientTest, ColouredTwinsDifferingInColour) {
  // Twins that differ in colour must not be swapped, and twins of one
  // colour still must.
  const Graph star = MakeStar(7);
  ExpectMatchesReference(star, {0, 0, 0, 0, 1, 1, 2}, "coloured star", true);
  const Graph k6 = MakeComplete(6);
  ExpectMatchesReference(k6, {0, 1, 0, 1, 0, 2}, "coloured K6", true);
  const Graph matching = MakeMatchingPlusIsolated(3, 2);
  ExpectMatchesReference(matching, {0, 1, 0, 0, 1, 0, 0, 1},
                         "coloured 3 K2 + 2 K1", true);
  Rng rng(77);
  for (int trial = 0; trial < 30; ++trial) {
    const size_t base_n = 3 + rng.NextBounded(8);
    const size_t base_m = rng.NextBounded(base_n * (base_n - 1) / 2 + 1);
    const Graph g = MakeTwinBlowUp(base_n, base_m, 4, rng);
    ExpectMatchesReference(g, RandomColors(g.NumVertices(), 2, rng),
                           "coloured blow-up trial " + std::to_string(trial));
  }
}

TEST(TwinQuotientTest, SmallGraphsAgainstBruteForce) {
  Rng rng(8);
  for (int trial = 0; trial < 60; ++trial) {
    const size_t n = 1 + rng.NextBounded(8);
    const size_t m = rng.NextBounded(n * (n - 1) / 2 + 1);
    const Graph g = ErdosRenyiGnm(n, m, rng);
    const std::vector<uint32_t> colors =
        trial % 2 == 0 ? std::vector<uint32_t>{} : RandomColors(n, 2, rng);
    ExpectMatchesReference(g, colors, "small trial " + std::to_string(trial),
                           /*brute_force=*/true);
  }
  for (int trial = 0; trial < 30; ++trial) {
    const Graph g = MakeTwinBlowUp(2 + rng.NextBounded(3), 2, 3, rng);
    if (g.NumVertices() > 8) continue;
    ExpectMatchesReference(g, {}, "small blow-up " + std::to_string(trial),
                           /*brute_force=*/true);
  }
}

TEST(TwinQuotientTest, RegularGraphsCheckEveryLeaf) {
  // On regular graphs colour refinement leaves the unit partition, so many
  // leaves share the first path's trace without being automorphisms: the
  // leaf certificate alone must reject them. The Frucht graph is cubic and
  // rigid.
  GraphBuilder frucht(12);
  for (VertexId i = 0; i < 12; ++i) frucht.AddEdge(i, (i + 1) % 12);
  for (auto [u, v] : {std::pair<VertexId, VertexId>{0, 7}, {1, 11}, {2, 10},
                      {3, 5}, {4, 9}, {6, 8}}) {
    frucht.AddEdge(u, v);
  }
  ExpectMatchesReference(frucht.Build(), {}, "Frucht");
  // Circulants C_n(1, s): vertex-transitive, with |Aut| depending on s.
  for (auto [n, step] : {std::pair<VertexId, VertexId>{12, 5}, {13, 5},
                         {14, 3}, {16, 7}, {15, 4}}) {
    GraphBuilder circulant(n);
    for (VertexId i = 0; i < n; ++i) {
      circulant.AddEdge(i, (i + 1) % n);
      circulant.AddEdge(i, (i + step) % n);
    }
    ExpectMatchesReference(circulant.Build(), {},
                           "C_" + std::to_string(n) + "(1," +
                               std::to_string(step) + ")");
  }
  Rng rng(31);
  for (int trial = 0; trial < 6; ++trial) {
    ExpectMatchesReference(WattsStrogatz(24, 4, 0.2, rng), {},
                           "Watts-Strogatz trial " + std::to_string(trial));
  }
}

TEST(TwinQuotientTest, NodesCountTheQuotientSearch) {
  // K_{1,30}: the leaves collapse to one Q vertex, so Q is a single edge
  // with distinct end colours and its search is the root alone.
  const AutomorphismResult aut = ComputeAutomorphisms(MakeStar(31), {}, nullptr);
  EXPECT_EQ(aut.nodes, 1u);
  EXPECT_EQ(aut.generators.size(), 29u);  // The adjacent transpositions.
}

}  // namespace
}  // namespace ksym
