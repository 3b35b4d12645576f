// Tests for colour-preserving isomorphism testing (aut/isomorphism.h),
// against a brute-force reference on small graphs.

#include "aut/isomorphism.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "aut/refinement.h"
#include "aut/search.h"
#include "common/rng.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "perm/schreier_sims.h"

namespace ksym {
namespace {

Graph RandomRelabel(const Graph& g, uint64_t seed) {
  Rng rng(seed);
  std::vector<VertexId> perm(g.NumVertices());
  std::iota(perm.begin(), perm.end(), 0u);
  rng.Shuffle(perm.begin(), perm.end());
  return RelabelGraph(g, perm);
}

// Reference: tries every bijection a -> b.
bool BruteForceIsomorphic(const Graph& a, const Graph& b,
                          const std::vector<uint32_t>& colors_a,
                          const std::vector<uint32_t>& colors_b) {
  const size_t n = a.NumVertices();
  if (n != b.NumVertices() || a.NumEdges() != b.NumEdges()) return false;
  std::vector<VertexId> image(n);
  std::iota(image.begin(), image.end(), 0u);
  do {
    bool ok = true;
    for (VertexId v = 0; v < n && ok; ++v) {
      ok = colors_a.empty() || colors_a[v] == colors_b[image[v]];
    }
    a.ForEachEdge([&](VertexId u, VertexId v) {
      ok = ok && b.HasEdge(image[u], image[v]);
    });
    if (ok) return true;
  } while (std::next_permutation(image.begin(), image.end()));
  return false;
}

// The Paley graph on Z_p (p ≡ 1 mod 4 prime): u ~ v iff u - v is a
// non-zero square.
Graph MakePaley(uint32_t p) {
  std::vector<bool> square(p, false);
  for (uint32_t x = 1; x < p; ++x) square[(x * x) % p] = true;
  GraphBuilder b(p);
  for (uint32_t u = 0; u < p; ++u) {
    for (uint32_t v = u + 1; v < p; ++v) {
      if (square[v - u]) b.AddEdge(u, v);
    }
  }
  return b.Build();
}

Graph Complement(const Graph& g) {
  GraphBuilder b(g.NumVertices());
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    for (VertexId v = u + 1; v < g.NumVertices(); ++v) {
      if (!g.HasEdge(u, v)) b.AddEdge(u, v);
    }
  }
  return b.Build();
}

TEST(IsomorphismTest, InvariantUnderRelabeling) {
  for (const Graph& g :
       {MakePetersen(), MakePath(8), MakeStar(7), MakeGrid(3, 4),
        MakeBalancedTree(2, 3)}) {
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      EXPECT_TRUE(AreIsomorphic(g, RandomRelabel(g, seed)));
    }
  }
}

TEST(IsomorphismTest, RandomGraphsInvariantUnderRelabeling) {
  Rng rng(41);
  for (int trial = 0; trial < 8; ++trial) {
    const Graph g = ErdosRenyiGnm(30, 50, rng);
    EXPECT_TRUE(AreIsomorphic(g, RandomRelabel(g, trial + 99)));
  }
}

TEST(IsomorphismTest, DistinguishesNonIsomorphicSameDegreeSequence) {
  // C_6 vs two disjoint triangles: both 2-regular on 6 vertices.
  const Graph c6 = MakeCycle(6);
  const Graph triangles = DisjointUnion(MakeCycle(3), MakeCycle(3));
  EXPECT_FALSE(AreIsomorphic(c6, triangles));
}

TEST(IsomorphismTest, ColorPatternsWithEqualProfiles) {
  // P5 with two colour-1 vertices of degree 2 each: apart in one pattern,
  // adjacent in the other. The (colour, degree) profiles agree, so only the
  // orbit question can tell them apart.
  const Graph p5 = MakePath(5);
  EXPECT_FALSE(AreIsomorphic(p5, p5, {0, 1, 0, 1, 0}, {0, 1, 1, 0, 0}));
  EXPECT_TRUE(AreIsomorphic(p5, p5, {0, 1, 1, 0, 0}, {0, 0, 1, 1, 0}));
}

// b for a random pair: by `mode`, a relabelled copy of a (isomorphic);
// that copy after one degree-preserving swap {u1 v1, u2 v2} ->
// {u1 v2, u2 v1}, which keeps the colour-degree profile and often breaks
// isomorphism; or a fresh G(n, m) under shuffled colours.
Graph MakePartner(const Graph& a, const std::vector<uint32_t>& colors_a,
                  int mode, Rng& rng, std::vector<uint32_t>& colors_b) {
  const size_t n = a.NumVertices();
  std::vector<VertexId> perm(n);
  std::iota(perm.begin(), perm.end(), 0u);
  rng.Shuffle(perm.begin(), perm.end());
  colors_b.assign(colors_a.size(), 0);
  for (size_t v = 0; v < colors_a.size(); ++v) {
    colors_b[perm[v]] = colors_a[v];
  }
  if (mode == 2) return ErdosRenyiGnm(n, a.NumEdges(), rng);

  GraphBuilder builder(n);
  std::vector<std::pair<VertexId, VertexId>> edges;
  a.ForEachEdge([&](VertexId u, VertexId v) {
    edges.emplace_back(perm[u], perm[v]);
  });
  const Graph copy = RelabelGraph(a, perm);
  for (int attempt = 0; mode == 1 && attempt < 50 && edges.size() >= 2;
       ++attempt) {
    const size_t i = rng.NextBounded(edges.size());
    const size_t j = rng.NextBounded(edges.size());
    const auto [u1, v1] = edges[i];
    const auto [u2, v2] = edges[j];
    if (u1 == u2 || u1 == v2 || v1 == u2 || v1 == v2 ||
        copy.HasEdge(u1, v2) || copy.HasEdge(u2, v1)) {
      continue;
    }
    edges[i] = {u1, v2};
    edges[j] = {u2, v1};
    break;
  }
  for (const auto& [u, v] : edges) builder.AddEdge(u, v);
  return builder.Build();
}

TEST(IsomorphismTest, MatchesBruteForceOnSmallColoredPairs) {
  Rng rng(71);
  int isomorphic = 0;
  int non_isomorphic = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const size_t n = 3 + rng.NextBounded(5);  // 3..7 vertices.
    const size_t m = rng.NextBounded(n * (n - 1) / 2 + 1);
    const Graph a = ErdosRenyiGnm(n, m, rng);
    std::vector<uint32_t> colors_a;
    if (rng.NextBernoulli(0.5)) {
      for (size_t v = 0; v < n; ++v) {
        colors_a.push_back(static_cast<uint32_t>(rng.NextBounded(2)));
      }
    }
    std::vector<uint32_t> colors_b;
    const Graph b = MakePartner(a, colors_a, trial % 3, rng, colors_b);

    const bool expected = BruteForceIsomorphic(a, b, colors_a, colors_b);
    EXPECT_EQ(AreIsomorphic(a, b, colors_a, colors_b), expected)
        << "trial " << trial;
    (expected ? isomorphic : non_isomorphic)++;
  }
  // Both answers must be exercised.
  EXPECT_GE(isomorphic, 50);
  EXPECT_GE(non_isomorphic, 50);
}

TEST(IsomorphismTest, PaleyGraphsAreSelfComplementary) {
  for (uint32_t p : {13u, 17u}) {
    const Graph paley = MakePaley(p);
    ASSERT_EQ(paley.NumEdges(), p * (p - 1) / 4);
    // |Aut(P(p))| = p(p-1)/2 for prime p: x -> a x + b, a a square.
    const AutomorphismResult aut = ComputeAutomorphisms(paley, {}, nullptr);
    EXPECT_EQ(GroupOrderFromGenerators(p, aut.generators),
              static_cast<double>(p * (p - 1) / 2));
    EXPECT_TRUE(AreIsomorphic(paley, Complement(paley))) << p;
    EXPECT_TRUE(AreIsomorphic(paley, RandomRelabel(Complement(paley), p)));
  }
}

TEST(IsomorphismTest, IsomorphicPairs) {
  EXPECT_TRUE(AreIsomorphic(MakeCycle(5), RandomRelabel(MakeCycle(5), 3)));
  EXPECT_TRUE(AreIsomorphic(MakePetersen(), RandomRelabel(MakePetersen(), 4)));
  Rng rng(43);
  const Graph g = BarabasiAlbert(60, 2, rng);
  EXPECT_TRUE(AreIsomorphic(g, RandomRelabel(g, 5)));
}

TEST(IsomorphismTest, NonIsomorphicPairs) {
  EXPECT_FALSE(AreIsomorphic(MakeCycle(6),
                             DisjointUnion(MakeCycle(3), MakeCycle(3))));
  EXPECT_FALSE(AreIsomorphic(MakePath(5), MakeStar(5)));
  EXPECT_FALSE(AreIsomorphic(MakeCycle(5), MakeCycle(6)));
}

TEST(IsomorphismTest, ColoredIsomorphismRespectsColors) {
  const Graph p2a = MakePath(2);
  const Graph p2b = MakePath(2);
  EXPECT_TRUE(AreIsomorphic(p2a, p2b, {0, 1}, {1, 0}));   // Swap works.
  EXPECT_FALSE(AreIsomorphic(p2a, p2b, {0, 0}, {0, 1}));  // Profile differs.

  // Path 0-1-2: centre coloured differently blocks matching to an
  // end-coloured variant.
  const Graph p3 = MakePath(3);
  EXPECT_TRUE(AreIsomorphic(p3, p3, {0, 1, 0}, {0, 1, 0}));
  EXPECT_FALSE(AreIsomorphic(p3, p3, {0, 1, 0}, {1, 0, 0}));
}

TEST(IsomorphismTest, EmptyGraphs) {
  EXPECT_TRUE(AreIsomorphic(Graph(0), Graph(0)));
  EXPECT_TRUE(AreIsomorphic(Graph(3), Graph(3)));
  EXPECT_FALSE(AreIsomorphic(Graph(3), Graph(4)));
}

// The 4x4 rook's graph: vertices (i, j), adjacent iff same row or column.
Graph MakeRook4x4() {
  GraphBuilder b(16);
  auto id = [](int i, int j) { return static_cast<VertexId>(4 * i + j); };
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      for (int jj = j + 1; jj < 4; ++jj) b.AddEdge(id(i, j), id(i, jj));
      for (int ii = i + 1; ii < 4; ++ii) b.AddEdge(id(i, j), id(ii, j));
    }
  }
  return b.Build();
}

// The Shrikhande graph: Cayley graph of Z4 x Z4 with connection set
// {±(1,0), ±(0,1), ±(1,1)}.
Graph MakeShrikhande() {
  GraphBuilder b(16);
  auto id = [](int x, int y) {
    return static_cast<VertexId>(4 * ((x % 4 + 4) % 4) + ((y % 4 + 4) % 4));
  };
  const int deltas[][2] = {{1, 0}, {-1, 0}, {0, 1}, {0, -1}, {1, 1}, {-1, -1}};
  for (int x = 0; x < 4; ++x) {
    for (int y = 0; y < 4; ++y) {
      for (const auto& d : deltas) {
        b.AddEdge(id(x, y), id(x + d[0], y + d[1]));
      }
    }
  }
  return b.Build();
}

TEST(IsomorphismTest, RookVsShrikhandeStronglyRegularPair) {
  // Both are SRG(16, 6, 2, 2): colour refinement cannot tell them apart
  // (the unit partition is equitable for both), so this exercises the
  // search beyond 1-WL power.
  const Graph rook = MakeRook4x4();
  const Graph shrikhande = MakeShrikhande();
  ASSERT_EQ(rook.NumEdges(), 48u);
  ASSERT_EQ(shrikhande.NumEdges(), 48u);
  EXPECT_EQ(EquitablePartition(rook, {}).size(), 1u);
  EXPECT_EQ(EquitablePartition(shrikhande, {}).size(), 1u);
  EXPECT_FALSE(AreIsomorphic(rook, shrikhande));
  // Both are vertex-transitive and isomorphic to themselves relabelled.
  EXPECT_TRUE(AreIsomorphic(rook, RandomRelabel(rook, 17)));
  EXPECT_TRUE(AreIsomorphic(shrikhande, RandomRelabel(shrikhande, 18)));
}

TEST(IsomorphismTest, RookAndShrikhandeGroupOrders) {
  // |Aut(rook 4x4)| = 2 * (4!)^2 = 1152; |Aut(Shrikhande)| = 192.
  const AutomorphismResult rook_aut = ComputeAutomorphisms(MakeRook4x4(), {}, nullptr);
  EXPECT_EQ(GroupOrderFromGenerators(16, rook_aut.generators), 1152.0);
  const AutomorphismResult shr_aut = ComputeAutomorphisms(MakeShrikhande(), {}, nullptr);
  EXPECT_EQ(GroupOrderFromGenerators(16, shr_aut.generators), 192.0);
}

TEST(IsomorphismTest, RegularNonIsomorphicPair) {
  // K_{3,3} vs the triangular prism: both 3-regular on 6 vertices.
  GraphBuilder prism(6);
  prism.AddEdge(0, 1);
  prism.AddEdge(1, 2);
  prism.AddEdge(2, 0);
  prism.AddEdge(3, 4);
  prism.AddEdge(4, 5);
  prism.AddEdge(5, 3);
  prism.AddEdge(0, 3);
  prism.AddEdge(1, 4);
  prism.AddEdge(2, 5);
  EXPECT_FALSE(AreIsomorphic(MakeCompleteBipartite(3, 3), prism.Build()));
}

}  // namespace
}  // namespace ksym
