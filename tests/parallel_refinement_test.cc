// Tests for the ExecutionContext execution policy: the thread pool and
// deterministic ParallelFor, and — the load-bearing property — that
// refinement under a multi-thread context is bit-identical to the
// sequential run (same cells, same trace hash) and deterministic across
// repeated runs.

#include "common/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "aut/orbits.h"
#include "aut/refinement.h"
#include "common/rng.h"
#include "graph/generators.h"
#include "ksym/anonymizer.h"

namespace ksym {
namespace {

TEST(ThreadPoolTest, RunInvokesEveryWorkerOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(4);
  pool.Run([&hits](uint32_t worker) { ++hits[worker]; });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPoolTest, RunIsReusable) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.Run([&total](uint32_t) { ++total; });
  }
  EXPECT_EQ(total.load(), 150);
}

TEST(ParallelForTest, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> visits(1000);
  ParallelFor(&pool, visits.size(),
              [&visits](size_t begin, size_t end, uint32_t) {
                for (size_t i = begin; i < end; ++i) ++visits[i];
              });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ParallelForTest, ChunkingIsStatic) {
  // Shard s must always receive the same contiguous chunk: the parallel
  // kernels depend on shard-indexed outputs being ascending.
  ThreadPool pool(3);
  std::vector<uint32_t> shard_of(10, ~0u);
  ParallelFor(&pool, shard_of.size(),
              [&shard_of](size_t begin, size_t end, uint32_t shard) {
                for (size_t i = begin; i < end; ++i) shard_of[i] = shard;
              });
  // ceil(10/3) = 4: shards get [0,4), [4,8), [8,10).
  const std::vector<uint32_t> expected = {0, 0, 0, 0, 1, 1, 1, 1, 2, 2};
  EXPECT_EQ(shard_of, expected);
}

TEST(ParallelForTest, NullPoolRunsInlineAsShardZero) {
  size_t calls = 0;
  ParallelFor(nullptr, 7, [&calls](size_t begin, size_t end, uint32_t shard) {
    ++calls;
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 7u);
    EXPECT_EQ(shard, 0u);
  });
  EXPECT_EQ(calls, 1u);
  ParallelFor(nullptr, 0, [](size_t, size_t, uint32_t) { FAIL(); });
}

TEST(ExecutionContextTest, SequentialContextHasNoPool) {
  ExecutionContext context;
  EXPECT_TRUE(context.IsSequential());
  EXPECT_EQ(context.pool(), nullptr);
  ExecutionContext parallel(4);
  EXPECT_FALSE(parallel.IsSequential());
  ASSERT_NE(parallel.pool(), nullptr);
  EXPECT_EQ(parallel.pool()->num_threads(), 4u);
  EXPECT_EQ(parallel.pool(), parallel.pool());  // Built once, reused.
}

// The equivalence: refinement under 2/4/8-thread contexts produces
// the identical cell array *and* the identical trace hash as the
// sequential refiner, on random ER and BA graphs.
TEST(ParallelRefinementTest, RandomizedEquivalenceWithSequential) {
  Rng rng(1234);
  std::vector<Graph> graphs;
  for (int trial = 0; trial < 4; ++trial) {
    graphs.push_back(ErdosRenyiGnm(300 + 100 * trial, 900 + 200 * trial, rng));
    graphs.push_back(BarabasiAlbert(400 + 150 * trial, 3, rng));
  }
  for (const Graph& graph : graphs) {
    OrderedPartition sequential(graph.NumVertices(), {});
    Refiner sequential_refiner(graph);
    const uint64_t sequential_hash = sequential_refiner.RefineAll(sequential);
    const auto sequential_cells = sequential.Cells();

    for (uint32_t threads : {2u, 4u, 8u}) {
      ExecutionContext context(threads);
      OrderedPartition parallel(graph.NumVertices(), {});
      Refiner parallel_refiner(graph, &context);
      const uint64_t parallel_hash = parallel_refiner.RefineAll(parallel);
      EXPECT_EQ(parallel_hash, sequential_hash)
          << "trace hash diverged at " << threads << " threads on n="
          << graph.NumVertices();
      EXPECT_EQ(parallel.Cells(), sequential_cells)
          << "cells diverged at " << threads << " threads on n="
          << graph.NumVertices();
      EXPECT_GT(context.stats().refine_calls, 0u);
    }
  }
}

TEST(ParallelRefinementTest, EquivalenceWithInitialColors) {
  Rng rng(99);
  const Graph graph = BarabasiAlbert(500, 4, rng);
  std::vector<uint32_t> colors(graph.NumVertices());
  for (size_t v = 0; v < colors.size(); ++v) {
    colors[v] = static_cast<uint32_t>(v % 3);
  }
  const auto sequential =
      EquitablePartition(graph, RefinementOptions{.colors = colors});
  ExecutionContext context(4);
  const auto parallel = EquitablePartition(
      graph, RefinementOptions{.colors = colors, .context = &context});
  EXPECT_EQ(parallel, sequential);
}

TEST(ParallelRefinementTest, RefineFromEquivalence) {
  // Individualize + RefineFrom, the automorphism search's inner step, must
  // also be bit-identical under a multi-thread context.
  Rng rng(7);
  const Graph graph = ErdosRenyiGnm(400, 800, rng);

  OrderedPartition sequential(graph.NumVertices(), {});
  Refiner sequential_refiner(graph);
  sequential_refiner.RefineAll(sequential);

  ExecutionContext context(4);
  OrderedPartition parallel(graph.NumVertices(), {});
  Refiner parallel_refiner(graph, &context);
  parallel_refiner.RefineAll(parallel);
  ASSERT_EQ(parallel.Cells(), sequential.Cells());

  const uint32_t target = sequential.TargetCell();
  if (target == OrderedPartition::kNoCell) return;  // Already discrete.
  const VertexId v = sequential.CellAt(target)[0];
  const uint64_t sequential_hash =
      sequential_refiner.RefineFrom(sequential, sequential.Individualize(v));
  const uint64_t parallel_hash =
      parallel_refiner.RefineFrom(parallel, parallel.Individualize(v));
  EXPECT_EQ(parallel_hash, sequential_hash);
  EXPECT_EQ(parallel.Cells(), sequential.Cells());
}

TEST(ParallelRefinementTest, RepeatedParallelRefineIsDeterministic) {
  Rng rng(55);
  const Graph graph = BarabasiAlbert(800, 3, rng);
  ExecutionContext context(8);
  Refiner refiner(graph, &context);

  OrderedPartition first(graph.NumVertices(), {});
  const uint64_t first_hash = refiner.RefineAll(first);
  for (int repeat = 0; repeat < 5; ++repeat) {
    OrderedPartition again(graph.NumVertices(), {});
    EXPECT_EQ(refiner.RefineAll(again), first_hash);
    EXPECT_EQ(again.Cells(), first.Cells());
  }
}

TEST(ParallelRefinementTest, OrbitAndAnonymizePipelinesMatchSequential) {
  Rng rng(21);
  const Graph graph = ErdosRenyiGnm(200, 380, rng);

  ExecutionContext context(4);
  EXPECT_TRUE(ComputeTotalDegreePartition(graph, &context) ==
              ComputeTotalDegreePartition(graph, nullptr));
  EXPECT_TRUE(ComputeAutomorphismPartition(graph, {}, &context) ==
              ComputeAutomorphismPartition(graph, {}, nullptr));

  AnonymizationOptions sequential_options;
  sequential_options.k = 3;
  sequential_options.use_total_degree_partition = true;
  AnonymizationOptions parallel_options = sequential_options;
  parallel_options.context = &context;

  const auto sequential = Anonymize(graph, sequential_options);
  const auto parallel = Anonymize(graph, parallel_options);
  ASSERT_TRUE(sequential.ok());
  ASSERT_TRUE(parallel.ok());
  EXPECT_TRUE(parallel->graph == sequential->graph);
  EXPECT_TRUE(parallel->partition == sequential->partition);
  EXPECT_EQ(parallel->vertices_added, sequential->vertices_added);
  EXPECT_EQ(parallel->edges_added, sequential->edges_added);
}

TEST(RefinementStatsTest, AnonymizePopulatesStats) {
  Rng rng(3);
  const Graph graph = BarabasiAlbert(300, 2, rng);
  AnonymizationOptions options;
  options.k = 2;
  options.use_total_degree_partition = true;
  const auto result = Anonymize(graph, options);
  ASSERT_TRUE(result.ok());
  // The TDV path refines at least once and splits the unit partition.
  EXPECT_GT(result->refinement.refine_calls, 0u);
  EXPECT_GT(result->refinement.cells_split, 0u);
  EXPECT_GT(result->refinement.splitters_processed, 0u);
  EXPECT_GE(result->refinement.partition_seconds, 0.0);
  EXPECT_GE(result->refinement.refine_seconds, 0.0);
  EXPECT_GE(result->refinement.copy_seconds, 0.0);
  // The partition phase contains the refine phase's time.
  EXPECT_GE(result->refinement.partition_seconds,
            result->refinement.refine_seconds);
}

TEST(RefinementStatsTest, CallerContextAccumulatesAcrossCalls) {
  Rng rng(17);
  const Graph graph = BarabasiAlbert(200, 2, rng);
  ExecutionContext context;  // Sequential policy, shared stats sink.
  AnonymizationOptions options;
  options.k = 2;
  options.use_total_degree_partition = true;
  options.context = &context;

  ASSERT_TRUE(Anonymize(graph, options).ok());
  const uint64_t after_one = context.stats().refine_calls;
  EXPECT_GT(after_one, 0u);
  ASSERT_TRUE(Anonymize(graph, options).ok());
  EXPECT_EQ(context.stats().refine_calls, 2 * after_one);
  context.ResetStats();
  EXPECT_EQ(context.stats().refine_calls, 0u);
}

TEST(RefinementApiTest, SingleEntryPointSignatures) {
  // Each refinement entry point has exactly one public signature (the
  // options-struct / ExecutionContext form); a null context must be the
  // sequential policy, not a distinct code path.
  Rng rng(11);
  const Graph graph = ErdosRenyiGnm(150, 300, rng);
  ExecutionContext sequential(1);
  EXPECT_EQ(EquitablePartition(graph, RefinementOptions{}),
            EquitablePartition(graph, RefinementOptions{.context = &sequential}));
  EXPECT_TRUE(ComputeTotalDegreePartition(graph, nullptr) ==
              ComputeTotalDegreePartition(graph, &sequential));
}

}  // namespace
}  // namespace ksym
