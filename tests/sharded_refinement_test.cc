// Tests for the out-of-core refinement seam (DESIGN.md §11): the sharded
// equitable partition and TDV computation must be bit-identical — cells AND
// trace hash — to the in-memory path at every shard count, thread count,
// and residency budget, and the residency stats must reflect the streaming.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "aut/orbits.h"
#include "aut/refinement.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "shard/partitioner.h"
#include "shard/refine.h"
#include "shard/sharded_graph.h"

namespace ksym {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

/// ER core with degree skew plus a cycle tail: several refinement rounds,
/// non-trivial cells, and shard boundaries that cut through hubs.
Graph MakeRefinementGraph() {
  Rng rng(2026);
  const Graph core = ErdosRenyiGnm(120, 420, rng);
  const Graph tail = MakeCycle(13);
  return DisjointUnion(core, tail);
}

std::string SplitToTemp(const Graph& graph, uint32_t num_shards,
                        const std::string& tag) {
  PartitionOptions options;
  options.num_shards = num_shards;
  const std::string prefix = TempPath("refine_" + tag);
  const auto manifest = Partitioner::Split(graph, {}, options, prefix);
  EXPECT_TRUE(manifest.ok()) << manifest.status();
  return prefix + ".manifest";
}

TEST(ShardedRefinementTest, MatchesInMemoryAcrossShardsThreadsAndBudgets) {
  const Graph graph = MakeRefinementGraph();

  uint64_t expected_trace = 0;
  const auto expected_cells = EquitablePartition(
      graph, RefinementOptions{.trace_hash = &expected_trace});
  ASSERT_NE(expected_trace, 0u);
  ASSERT_GT(expected_cells.size(), 1u);

  for (uint32_t shards : {1u, 2u, 4u}) {
    const std::string manifest =
        SplitToTemp(graph, shards, "eq_" + std::to_string(shards));
    for (uint32_t threads : {1u, 2u, 4u}) {
      for (size_t budget : {size_t{256} << 20, size_t{1}}) {
        SCOPED_TRACE(testing::Message() << "shards=" << shards << " threads="
                                        << threads << " budget=" << budget);
        ShardedGraphOptions options;
        options.max_resident_bytes = budget;
        auto sharded = ShardedGraph::Open(manifest, options);
        ASSERT_TRUE(sharded.ok()) << sharded.status();

        const ExecutionContext context(threads);
        uint64_t trace = 0;
        const auto cells = ShardedEquitablePartition(
            *sharded,
            RefinementOptions{.context = &context, .trace_hash = &trace});
        EXPECT_EQ(cells, expected_cells);
        EXPECT_EQ(trace, expected_trace);

        // The streaming really went through the residency cache...
        const ShardResidencyStats& stats = sharded->stats();
        EXPECT_GT(stats.loads, 0u);
        EXPECT_GT(stats.peak_resident_bytes, 0u);
        // ...and a 1-byte budget with several shards must keep evicting.
        if (shards > 1 && budget == 1) {
          EXPECT_GT(stats.evictions, 0u);
        }
      }
    }
  }
}

TEST(ShardedRefinementTest, TotalDegreePartitionMatchesInMemory) {
  const Graph graph = MakeRefinementGraph();
  uint64_t expected_trace = 0;
  const VertexPartition expected =
      ComputeTotalDegreePartition(graph, nullptr, &expected_trace);

  const std::string manifest = SplitToTemp(graph, 3, "tdv");
  auto sharded = ShardedGraph::Open(manifest);
  ASSERT_TRUE(sharded.ok()) << sharded.status();

  uint64_t trace = 0;
  const VertexPartition tdv =
      ShardedTotalDegreePartition(*sharded, nullptr, &trace);
  EXPECT_EQ(tdv, expected);
  EXPECT_EQ(tdv.cell_of, expected.cell_of);
  EXPECT_EQ(trace, expected_trace);
}

/// An initial colouring must flow through the sharded path the same way
/// (the seam sits below OrderedPartition construction).
TEST(ShardedRefinementTest, HonoursInitialColors) {
  const Graph graph = MakeRefinementGraph();
  std::vector<uint32_t> colors(graph.NumVertices(), 0);
  for (size_t v = 0; v < colors.size(); ++v) colors[v] = v % 3;

  uint64_t expected_trace = 0;
  const auto expected = EquitablePartition(
      graph,
      RefinementOptions{.colors = colors, .trace_hash = &expected_trace});

  const std::string manifest = SplitToTemp(graph, 2, "colors");
  auto sharded = ShardedGraph::Open(manifest);
  ASSERT_TRUE(sharded.ok()) << sharded.status();

  uint64_t trace = 0;
  const auto cells = ShardedEquitablePartition(
      *sharded,
      RefinementOptions{.colors = colors, .trace_hash = &trace});
  EXPECT_EQ(cells, expected);
  EXPECT_EQ(trace, expected_trace);
}

}  // namespace
}  // namespace ksym
