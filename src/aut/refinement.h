// Equitable partition refinement (1-dimensional Weisfeiler-Leman, a.k.a.
// colour refinement) on ordered partitions.
//
// This is the workhorse of the individualization-refinement automorphism
// search (aut/search.*) and also directly implements the paper's "total
// degree partition" TDV(G) (Section 7): the coarsest equitable partition
// refining the initial colouring, which the paper reports coincides with the
// automorphism partition Orb(G) on all their real networks.
//
// An OrderedPartition keeps the vertices in a single array where each cell
// is a contiguous segment; a cell is named by its start position. All
// processing orders (worklist order, affected-cell order, count order) are
// isomorphism-invariant, which makes the refinement trace hash usable for
// search-tree pruning and as an isomorphism-invariant key.
//
// The refiner follows the Hopcroft / Paige-Tarjan schedule that nauty and
// Traces use (DESIGN.md §7): a split touches only the vertices with a
// nonzero count, a newly split cell that is not queued queues every part
// but one largest, and the worklist holds each cell at most once.

#ifndef KSYM_AUT_REFINEMENT_H_
#define KSYM_AUT_REFINEMENT_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "aut/neighbor_source.h"
#include "common/parallel.h"
#include "graph/graph.h"
#include "perm/permutation.h"

namespace ksym {

/// An ordered partition of [0, n) into contiguous cells.
class OrderedPartition {
 public:
  static constexpr uint32_t kNoCell = static_cast<uint32_t>(-1);

  /// The unit partition (single cell) if colors is empty, else cells grouped
  /// by color and ordered by ascending color value.
  OrderedPartition(size_t n, const std::vector<uint32_t>& colors);

  size_t NumVertices() const { return elements_.size(); }
  size_t NumCells() const { return num_cells_; }
  bool IsDiscrete() const { return num_cells_ == elements_.size(); }

  /// Start position of the cell containing v.
  uint32_t CellStartOf(VertexId v) const { return cell_start_[v]; }

  /// Size of the cell starting at `start` (must be a cell start).
  uint32_t CellSizeAt(uint32_t start) const { return cell_size_[start]; }

  /// Elements of the cell starting at `start`.
  std::span<const VertexId> CellAt(uint32_t start) const {
    return {elements_.data() + start, cell_size_[start]};
  }

  /// Start of the first cell of size > 1 in partition order, or kNoCell if
  /// discrete. This is the (isomorphism-invariant) target-cell selector of
  /// the search; amortized O(1) via a monotone hint that RevertTo rewinds.
  uint32_t TargetCell() const;

  /// Splits v's cell into [ {v}, rest ]; requires |cell| >= 2. Returns the
  /// start of the new singleton cell (== old cell start).
  uint32_t Individualize(VertexId v);

  /// All cells in order, as vertex lists.
  std::vector<std::vector<VertexId>> Cells() const;

  /// For a discrete partition: the labelling vertex -> position.
  Permutation ToLabeling() const;

  /// Splits the cell starting at `start` in place. `tail` lists distinct
  /// members of that cell; they move, in this order, to the end of the
  /// cell and are cut into consecutive groups of sizes `tail_groups`
  /// (summing to |tail|). The members not in `tail` stay in front as the
  /// first group and keep the cell start; when `tail` is the whole cell,
  /// its first group keeps it. The split must yield at least two groups.
  /// Costs O(|tail|), and so does reverting it. Returns how many elements
  /// the moves displaced.
  uint32_t Carve(uint32_t start, std::span<const VertexId> tail,
                 std::span<const uint32_t> tail_groups);

  /// Backtracking support: every split (including Individualize) is
  /// journaled. JournalMark() before a speculative step, RevertTo(mark) to
  /// merge all later splits back. Within-cell element order after a revert
  /// may differ from before the step; cell contents are restored exactly.
  size_t JournalMark() const { return journal_.size(); }
  void RevertTo(size_t mark);

 private:
  struct SplitRecord {
    uint32_t start;
    uint32_t old_size;
    uint32_t first_size;  // The first group kept cell_start_ == start.
    uint32_t num_groups;
  };

  std::vector<VertexId> elements_;   // Vertices; cells are segments.
  std::vector<uint32_t> position_;   // position_[v]: index of v in elements_.
  std::vector<uint32_t> cell_start_; // cell_start_[v]: start of v's cell.
  std::vector<uint32_t> cell_size_;  // Valid at cell-start indices.
  size_t num_cells_ = 0;
  std::vector<SplitRecord> journal_;
  // Every cell starting before target_hint_ is a singleton.
  mutable uint32_t target_hint_ = 0;
};

/// Options for the refinement entry points.
struct RefinementOptions {
  /// Initial colouring (empty = unit partition), as for OrderedPartition.
  std::vector<uint32_t> colors = {};
  /// Stats sink for refinement counters and timers. nullptr = none.
  const ExecutionContext* context = nullptr;
  /// If non-null, receives the refinement trace hash — the
  /// isomorphism-invariant digest RefineAll returns, bit-identical across
  /// thread counts and across the in-memory / sharded neighbor sources.
  uint64_t* trace_hash = nullptr;
};

/// Stateful refiner holding scratch buffers keyed to one graph.
///
/// One sequential splitter loop (DESIGN.md §7). For each splitter W it
/// counts, per vertex, the neighbours in W; in each affected cell it sorts
/// only the touched members by (count, vertex id), moves them to the cell
/// tail and carves them into groups, leaving the zero-count remainder in
/// front as the first group. Work per splitter is O(touched log touched),
/// independent of the affected cells' sizes. A split cell that is already
/// queued queues its new parts; otherwise every part but the first largest
/// is queued. Loop invariant: the partition is stable with respect to every
/// cell that is neither queued nor derivable (a stable set minus queued or
/// stable parts), so an empty worklist means equitable.
///
/// The layout a split produces depends only on the set of touched vertices
/// and their counts, never on the order a NeighborSource reports them, so
/// the partition and the trace hash are bit-identical across sources and
/// thread counts. The context only collects stats.
///
/// The Graph constructors bind the refiner to an in-memory CSR source; the
/// NeighborSource constructor accepts any implementation of the counting
/// seam (ShardedNeighborSource for out-of-core shard sets,
/// DeltaNeighborSource for an edit overlay, or the repair's weighted cell
/// quotient) — splitting and the trace hash are source-agnostic
/// (DESIGN.md §11).
class Refiner {
 public:
  explicit Refiner(const Graph& graph);
  Refiner(const Graph& graph, const ExecutionContext* context);
  /// Binds to a caller-owned source, which must outlive the refiner.
  Refiner(NeighborSource& source, const ExecutionContext* context);

  /// Refines `p` to the coarsest equitable partition finer than it, seeding
  /// the splitter worklist with every current cell. Returns an
  /// isomorphism-invariant trace hash of the refinement.
  uint64_t RefineAll(OrderedPartition& p);

  /// Refines after Individualize(): the worklist is seeded with the new
  /// singleton cell at `seed_start` (sufficient to restore equitability when
  /// `p` was equitable before the split). Returns the trace hash.
  uint64_t RefineFrom(OrderedPartition& p, uint32_t seed_start);

  /// Refines with the worklist seeded by an explicit set of current cell
  /// starts — the incremental-repair entry point (dyn/repair.h). The caller
  /// owns the soundness argument: the fixpoint is only the coarsest
  /// equitable refinement of `p` if `p` is already stable with respect to
  /// every cell NOT seeded (DESIGN.md §15 spells out the seed set the
  /// dynamic layer uses). `seed_starts` must be duplicate-free cell starts
  /// of `p`; scheduling order follows the given order, so pass them sorted
  /// for a deterministic trace. Returns the trace hash.
  uint64_t RefineSeeded(OrderedPartition& p,
                        std::span<const uint32_t> seed_starts);

 private:
  /// Queues the cell starting at `start` unless it is already queued.
  void Enqueue(uint32_t start);

  /// Refines using the splitter cells currently queued in worklist_.
  uint64_t DoRefine(OrderedPartition& p);

  /// One splitter's count/split step: mutates `hash` and queues new cells.
  void ProcessSplitter(OrderedPartition& p, uint32_t w_start, uint64_t& hash);

  /// Splits the affected cell at `c_start` by the counts of its touched
  /// members `tail` (in any order), unless the counts are uniform over the
  /// whole cell.
  void SplitAffected(OrderedPartition& p, uint32_t w_start, uint32_t c_start,
                     std::span<VertexId> tail, uint64_t& hash);

  NeighborSource* source_;  // The counting seam; never null.
  std::unique_ptr<NeighborSource> owned_source_;  // Set by the Graph ctors.
  const ExecutionContext* context_;  // May be null (no stats).
  // Work counters of the running DoRefine, added to the context's stats
  // at its end.
  uint64_t cells_split_ = 0;
  uint64_t touched_vertices_ = 0;
  uint64_t elements_scanned_ = 0;
  std::vector<uint32_t> count_;      // Scratch: neighbour counts.
  std::vector<VertexId> touched_;    // Scratch: vertices with count > 0.
  // Per cell start: 1 while the cell is queued. All zero between refines.
  std::vector<uint8_t> in_queue_;
  // Per cell start: touched members, then a cursor into grouped_. All zero
  // between splitters.
  std::vector<uint32_t> cell_touched_;
  // Scratch buffers reused across DoRefine calls (allocation-free refines).
  std::vector<uint32_t> worklist_;
  std::vector<uint32_t> affected_;
  std::vector<VertexId> grouped_;     // touched_, grouped by affected cell.
  std::vector<uint64_t> keys_;        // (count << 32 | vertex) of one tail.
  std::vector<uint32_t> group_sizes_;
};

/// The stable (coarsest equitable) partition refining options.colors — the
/// paper's TDV(G) when colors is empty. Cells are returned in partition
/// order. Runs on options.context's policy (sequential when null).
std::vector<std::vector<VertexId>> EquitablePartition(
    const Graph& graph, const RefinementOptions& options);

/// As above over any neighbor source — the entry point the out-of-core
/// pipeline uses (shard/refine.h wraps a ShardedGraph into a source and
/// calls this). Identical cells and trace hash to the Graph overload.
std::vector<std::vector<VertexId>> EquitablePartition(
    NeighborSource& source, const RefinementOptions& options);

}  // namespace ksym

#endif  // KSYM_AUT_REFINEMENT_H_
