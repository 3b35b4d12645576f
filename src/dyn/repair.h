// Incremental equitable-partition repair (DESIGN.md §15).
//
// Given TDV(G_old) and a committed edit batch whose endpoints are the
// *touched* vertices, recompute TDV(G_new) without re-refining the whole
// graph. Three steps:
//
//  1. *Dissolve*: merge every parent cell containing a touched vertex into
//     one pool cell; every untouched parent cell survives as its own cell.
//  2. *Seeded refine*: run the worklist refiner (Refiner::RefineSeeded)
//     with the worklist seeded by the pool plus every cell adjacent to the
//     pool in G_new. Every cell X of the dissolved partition P0 that is
//     not seeded is an untouched parent cell with no pool neighbours, so
//     counts into X are unchanged from G_old for non-pool vertices (their
//     adjacency didn't change and TDV(G_old) was stable) and zero for pool
//     vertices — uniform either way. So P0 is stable with respect to every
//     non-seeded cell: the refiner's loop invariant holds from the start,
//     which is what makes its skip-the-largest-part rule sound here, and
//     the fixpoint P* is equitable.
//  3. *Quotient coarsening*: P* is equitable, hence refines the coarsest
//     equitable partition TDV(G_new) — but possibly strictly (an edit can
//     *coarsen* TDV globally: add one edge to a path and a triangle's
//     all-in-one-cell partition appears). Build the cell-quotient weight
//     matrix d(i,j) = |N(v) ∩ cell_j| for v ∈ cell_i (well-defined by
//     equitability) as a weighted NeighborSource on the P* cells, and run
//     the one Refiner (RefineAll) on it from the unit partition. Counts
//     are additive sums of d(i,j) over the splitter's cells, so the
//     refiner's skip-the-largest-part rule holds as on a graph. Merging
//     the P* cells of each resulting quotient cell lifts to exactly
//     TDV(G_new) (the lifted partition is equitable, and the TDV-induced
//     quotient partition is equitable, so the coarsest one is no finer
//     than it).
//
// The result is returned as a canonical VertexPartition, so bit-identity
// with ComputeTotalDegreePartition(G_new) is plain operator== — and the
// trace-hash contract for the dynamic layer is PartitionChecksum equality
// (the repair's refinement *schedule* legitimately differs from a full
// recompute's, so raw refine trace hashes do not match; the partition
// checksum hashes what the schedules converge to).

#ifndef KSYM_DYN_REPAIR_H_
#define KSYM_DYN_REPAIR_H_

#include <cstdint>
#include <span>

#include "aut/neighbor_source.h"
#include "aut/orbits.h"
#include "common/parallel.h"
#include "common/status.h"

namespace ksym {
namespace dyn {

/// Counters for one repair run, asserted in dyn_test / reported by
/// BM_IncrementalRepair and the daemon's `reanonymize` report. Both refines
/// add their work to the context's RefinementStats; `refine_splitters`
/// counts only the worklist entries the seeded refine consumed, making
/// "repair visits strictly fewer splitters than a full refine" a
/// well-defined comparison, and `quotient_splitters` those of the
/// coarsening refine on the cell quotient.
struct RepairStats {
  size_t pool_cells = 0;       // Parent cells dissolved into the pool.
  size_t pool_vertices = 0;    // Vertices in the pool.
  size_t seed_cells = 0;       // Worklist seeds handed to RefineSeeded.
  uint64_t refine_splitters = 0;  // Splitters the seeded refine consumed.
  size_t refined_cells = 0;    // |P*| before coarsening.
  uint64_t quotient_splitters = 0;  // Splitters the coarsening consumed.
  size_t quotient_merges = 0;  // P* cells merged away by coarsening.
};

/// Canonical content digest of a VertexPartition (cells are sorted and
/// min-ordered by construction) — the dynamic layer's trace-hash contract
/// and the PlanCache's partition identity.
uint64_t PartitionChecksum(const VertexPartition& partition);

/// Repairs `parent` — which must be TDV of the pre-edit graph — into TDV
/// of the post-edit graph behind `source`. `touched` lists every vertex
/// incident to an applied edit (EditBatch::Endpoints of all batches since
/// `parent` was computed); duplicates are fine. Requires
/// parent.cell_of.size() == source.NumVertices() (vertex count is
/// immutable under edits). With `touched` empty, returns a copy of
/// `parent`. Runs on `context`'s execution policy; requires splitter
/// counters via context->stats() when `stats` is non-null.
Result<VertexPartition> RepairTotalDegreePartition(
    NeighborSource& source, const VertexPartition& parent,
    std::span<const VertexId> touched, const ExecutionContext* context,
    RepairStats* stats = nullptr);

}  // namespace dyn
}  // namespace ksym

#endif  // KSYM_DYN_REPAIR_H_
