// Tests for the deterministic parallel evaluation engine: every
// parallelized evaluation kernel — degree / clustering / triangle values,
// sampled path lengths, resilience curves, batch sampling, and the attack
// measures — must produce bit-identical output to its sequential path at
// any thread count. Mirrors parallel_refinement_test.cc; runs under the
// same TSan CI job.

#include <gtest/gtest.h>

#include <iterator>
#include <vector>

#include "attack/measures.h"
#include "common/check.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "ksym/anonymizer.h"
#include "ksym/sampling.h"
#include "stats/distributions.h"
#include "stats/resilience.h"

namespace ksym {
namespace {

constexpr uint32_t kThreadCounts[] = {2, 4, 8};

std::vector<Graph> TestGraphs() {
  Rng rng(20260806);
  std::vector<Graph> graphs;
  graphs.push_back(ErdosRenyiGnm(300, 900, rng));
  graphs.push_back(BarabasiAlbert(400, 3, rng));
  graphs.push_back(BarabasiAlbert(250, 6, rng));  // Denser: more triangles.
  // Disconnected: two components exercise the cross-component skip paths.
  graphs.push_back(DisjointUnion(ErdosRenyiGnm(120, 300, rng),
                                 BarabasiAlbert(150, 2, rng)));
  return graphs;
}

TEST(ParallelEvalTest, DegreeValuesMatchesSequential) {
  for (const Graph& graph : TestGraphs()) {
    const auto sequential = DegreeValues(graph);
    for (uint32_t threads : kThreadCounts) {
      ExecutionContext context(threads);
      EXPECT_EQ(DegreeValues(graph, &context), sequential);
    }
  }
}

TEST(ParallelEvalTest, TriangleCountsMatchSequential) {
  for (const Graph& graph : TestGraphs()) {
    const auto sequential = TriangleCounts(graph);
    for (uint32_t threads : kThreadCounts) {
      ExecutionContext context(threads);
      EXPECT_EQ(TriangleCounts(graph, &context), sequential);
    }
  }
}

TEST(ParallelEvalTest, ClusteringValuesMatchSequential) {
  for (const Graph& graph : TestGraphs()) {
    const auto sequential = ClusteringValues(graph);
    for (uint32_t threads : kThreadCounts) {
      ExecutionContext context(threads);
      // Bit-identical, not approximately equal: same tri counts, same
      // divisions, in slots filled by index.
      EXPECT_EQ(ClusteringValues(graph, &context), sequential);
    }
  }
}

TEST(ParallelEvalTest, SampledPathLengthsMatchSequential) {
  for (const Graph& graph : TestGraphs()) {
    Rng sequential_rng(99);
    const auto sequential = SampledPathLengths(graph, 120, sequential_rng);
    EXPECT_FALSE(sequential.empty());
    // First post-call draw: both paths must leave the Rng in the same state.
    const uint64_t expected_next = sequential_rng.Next();
    for (uint32_t threads : kThreadCounts) {
      ExecutionContext context(threads);
      Rng parallel_rng(99);
      EXPECT_EQ(SampledPathLengths(graph, 120, parallel_rng, &context),
                sequential)
          << "path lengths diverged at " << threads << " threads";
      EXPECT_EQ(parallel_rng.Next(), expected_next);
    }
  }
}

TEST(ParallelEvalTest, SampledPathLengthsSkipsDisconnectedPairs) {
  Rng rng(139);
  const Graph g = DisjointUnion(MakeComplete(3), MakeComplete(3));
  ExecutionContext context(4);
  const auto lengths = SampledPathLengths(g, 100, rng, &context);
  EXPECT_FALSE(lengths.empty());
  for (double l : lengths) EXPECT_DOUBLE_EQ(l, 1.0);  // Within a K_3.
}

TEST(ParallelEvalTest, ResilienceCurveMatchesSequential) {
  for (const Graph& graph : TestGraphs()) {
    const auto sequential = ResilienceCurve(graph, 21, 0.6);
    for (uint32_t threads : kThreadCounts) {
      ExecutionContext context(threads);
      EXPECT_EQ(ResilienceCurve(graph, 21, 0.6, &context), sequential);
    }
  }
}

// One release shared by the batch-sampling tests.
AnonymizationResult TestRelease() {
  Rng rng(7);
  const Graph graph = BarabasiAlbert(200, 2, rng);
  AnonymizationOptions options;
  options.k = 3;
  options.use_total_degree_partition = true;
  auto result = Anonymize(graph, options);
  KSYM_CHECK(result.ok());
  return std::move(result).value();
}

TEST(ParallelEvalTest, DrawSamplesMatchesSequentialBatch) {
  const AnonymizationResult release = TestRelease();
  for (const bool exact : {false, true}) {
    const Rng rng(4242);
    BatchSampleOptions options;
    options.num_samples = 6;
    options.target_vertices = release.original_vertices;
    options.exact = exact;
    std::vector<SampleStats> sequential_stats;
    const auto sequential = DrawSamples(release.graph, release.partition,
                                        options, rng, &sequential_stats);
    ASSERT_TRUE(sequential.ok());
    ASSERT_EQ(sequential->size(), options.num_samples);
    ASSERT_EQ(sequential_stats.size(), options.num_samples);

    for (uint32_t threads : kThreadCounts) {
      ExecutionContext context(threads);
      BatchSampleOptions parallel_options = options;
      parallel_options.context = &context;
      std::vector<SampleStats> parallel_stats;
      const auto parallel = DrawSamples(release.graph, release.partition,
                                        parallel_options, rng,
                                        &parallel_stats);
      ASSERT_TRUE(parallel.ok());
      ASSERT_EQ(parallel->size(), options.num_samples);
      for (size_t i = 0; i < options.num_samples; ++i) {
        EXPECT_TRUE((*parallel)[i] == (*sequential)[i])
            << "sample " << i << " diverged at " << threads << " threads"
            << (exact ? " (exact)" : " (approximate)");
        EXPECT_EQ(parallel_stats[i].sampled_vertices,
                  sequential_stats[i].sampled_vertices);
        EXPECT_EQ(parallel_stats[i].copy_operations,
                  sequential_stats[i].copy_operations);
      }
    }
  }
}

TEST(ParallelEvalTest, DrawSamplesMatchesSingleSampleFork) {
  // The batch is defined as sample i <- Fork(i) of the caller's stream: the
  // batch API must equal hand-forked single-sample calls.
  const AnonymizationResult release = TestRelease();
  const Rng rng(11);
  BatchSampleOptions options;
  options.num_samples = 4;
  options.target_vertices = release.original_vertices;
  const auto batch =
      DrawSamples(release.graph, release.partition, options, rng);
  ASSERT_TRUE(batch.ok());
  const std::vector<double> weights =
      SizeAwareCellWeights(release.graph, release.partition);
  for (size_t i = 0; i < options.num_samples; ++i) {
    Rng sample_rng = rng.Fork(i);
    const auto single =
        ApproximateBackboneSample(release.graph, release.partition,
                                  release.original_vertices, sample_rng,
                                  &weights);
    ASSERT_TRUE(single.ok());
    EXPECT_TRUE((*batch)[i] == *single) << "sample " << i;
  }
}

TEST(ParallelEvalTest, DrawSamplesDoesNotAdvanceCallerRng) {
  const AnonymizationResult release = TestRelease();
  Rng rng(57);
  Rng untouched(57);
  BatchSampleOptions options;
  options.num_samples = 3;
  options.target_vertices = release.original_vertices;
  ASSERT_TRUE(DrawSamples(release.graph, release.partition, options, rng).ok());
  EXPECT_EQ(rng.Next(), untouched.Next());
}

TEST(ParallelEvalTest, DrawSamplesRejectsMismatchedPartition) {
  const AnonymizationResult release = TestRelease();
  VertexPartition bad = release.partition;
  bad.cell_of.pop_back();
  BatchSampleOptions options;
  options.num_samples = 2;
  options.target_vertices = release.original_vertices;
  const Rng rng(3);
  EXPECT_FALSE(DrawSamples(release.graph, bad, options, rng).ok());
}

TEST(ParallelEvalTest, AttackMeasuresMatchSequential) {
  for (const Graph& graph : TestGraphs()) {
    for (uint32_t threads : kThreadCounts) {
      ExecutionContext context(threads);
      const StructuralMeasure sequential_measures[] = {
          DegreeMeasure(), TriangleMeasure(), NeighborDegreeSequenceMeasure(),
          CombinedMeasure(), NeighborhoodMeasure()};
      const StructuralMeasure parallel_measures[] = {
          DegreeMeasure(&context), TriangleMeasure(&context),
          NeighborDegreeSequenceMeasure(&context), CombinedMeasure(&context),
          NeighborhoodMeasure(&context)};
      for (size_t m = 0; m < std::size(sequential_measures); ++m) {
        EXPECT_EQ(parallel_measures[m].eval(graph),
                  sequential_measures[m].eval(graph))
            << parallel_measures[m].name << " diverged at " << threads
            << " threads";
      }
    }
  }
}

TEST(ParallelEvalTest, NeighborhoodMeasureCoversHubEgoNets) {
  // A star center has an ego net over the 64-vertex exact-isomorphism limit,
  // so the refinement-trace fallback runs inside the sharded loop too.
  Rng rng(5);
  const Graph graph = DisjointUnion(MakeStar(100), BarabasiAlbert(100, 2, rng));
  const StructuralMeasure sequential = NeighborhoodMeasure();
  for (uint32_t threads : kThreadCounts) {
    ExecutionContext context(threads);
    EXPECT_EQ(NeighborhoodMeasure(&context).eval(graph),
              sequential.eval(graph));
  }
}

TEST(ParallelEvalTest, RepeatedParallelEvalIsDeterministic) {
  Rng rng(617);
  const Graph graph = BarabasiAlbert(300, 3, rng);
  ExecutionContext context(8);
  const auto first_cc = ClusteringValues(graph, &context);
  const auto first_curve = ResilienceCurve(graph, 11, 0.5, &context);
  for (int repeat = 0; repeat < 3; ++repeat) {
    EXPECT_EQ(ClusteringValues(graph, &context), first_cc);
    EXPECT_EQ(ResilienceCurve(graph, 11, 0.5, &context), first_curve);
  }
}

}  // namespace
}  // namespace ksym
