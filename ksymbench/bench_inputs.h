// Seeded inputs for the benchmark workloads. Every generator is driven by
// the one workload seed, so the same seed always gives byte-identical
// files and request scripts.

#ifndef KSYMBENCH_BENCH_INPUTS_H_
#define KSYMBENCH_BENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "dyn/delta_graph.h"
#include "graph/graph.h"

namespace ksymbench {

/// Seeds of the independent input streams, derived from the workload seed.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

/// The paper's networks scaled up: configuration model over a power-law
/// degree sequence with minimum degree 1, exponent 2.2 and a cap of 2000,
/// drawn by stratified sampling of its quantiles.
ksym::Graph MakeSocialGraph(size_t n, uint64_t seed);

/// One edit batch per epoch over a base graph. Each batch inserts
/// `inserts` absent edges, one endpoint chosen in proportion to degree and
/// the other uniformly, and deletes `deletes` present edges chosen
/// uniformly. No edge is edited twice in a batch, so every batch is valid
/// against the graph the earlier batches leave.
std::vector<ksym::dyn::EditBatch> MakeEditTrace(const ksym::Graph& base,
                                                size_t epochs, size_t inserts,
                                                size_t deletes, uint64_t seed);

/// Replays the first `epochs` batches of `trace` over `base` by a plain
/// edge-set model (not the program's DeltaGraph). Fails if an insert finds
/// its edge present or a delete finds it absent.
ksym::Result<ksym::Graph> ApplyEditTrace(
    const ksym::Graph& base, const std::vector<ksym::dyn::EditBatch>& trace,
    size_t epochs);

}  // namespace ksymbench

#endif  // KSYMBENCH_BENCH_INPUTS_H_
