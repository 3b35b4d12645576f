// Figure 2: ability of structural measures to re-identify a target.
//
// For each network, computes r_f (relative unique re-identification power)
// and s_f (similarity to the orbit partition) for the degree, triangle, and
// combined (neighbour degree sequence + triangle count) measures.
//
// Paper shape to reproduce: the combined measure's r_f and s_f are close to
// 1 (the orbit upper bound) on all three networks, far above the single
// measures — motivating a knowledge-independent model.
//
// --threads N shards each measure's per-vertex key computation (the
// dominant cost is the neighborhood measure's per-ego-net refinement and
// isomorphism tests) without changing any printed statistic.

#include <cstdio>

#include "attack/measures.h"
#include "attack/reidentification.h"
#include "bench/bench_util.h"

int main(int argc, char** argv) {
  using namespace ksym;
  const uint32_t threads = bench::ThreadsFlag(argc, argv);
  ExecutionContext context(threads);
  bench::PrintHeader("Figure 2: power of structural knowledge (r_f / s_f)");
  std::printf("(threads = %u)\n", context.threads());
  std::printf("%-11s %-18s %8s %8s %12s %12s\n", "Network", "measure", "r_f",
              "s_f", "measure1cell", "orbit1cell");
  bench::PrintRule();
  for (const auto& dataset : bench::PrepareAllDatasets()) {
    for (const StructuralMeasure& measure :
         {DegreeMeasure(&context), TriangleMeasure(&context),
          NeighborhoodMeasure(&context), CombinedMeasure(&context)}) {
      const ReidentificationStats stats =
          EvaluateMeasure(dataset.graph, measure, dataset.orbits);
      std::printf("%-11s %-18s %8.3f %8.3f %12zu %12zu\n",
                  dataset.name.c_str(), measure.name.c_str(), stats.r_f,
                  stats.s_f, stats.measure_singletons,
                  stats.orbit_singletons);
    }
    std::printf("%-11s (orbit partition computed in %.1f ms)\n",
                dataset.name.c_str(), dataset.orbit_millis);
    bench::PrintRule();
  }
  std::printf(
      "Expected shape (paper Fig. 2): combined >> degree/triangle, with\n"
      "combined r_f and s_f approaching 1.0 on every network.\n");
  return 0;
}
