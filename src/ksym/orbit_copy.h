// The orbit copying operation Ocp(G, V, V_i) — Definition 3 of the paper.
//
// For each vertex v in the copied unit, a new vertex v' is introduced and
// wired so that the copy preserves the unit's adjacency pattern exactly:
//   1. every edge (u, v) with u outside the unit's cell becomes (u, v');
//   2. every edge (u, v) inside the unit becomes (u', v').
// Copies are appended to the unit's cell, which by Lemmas 1-2 keeps the
// tracked partition a sub-automorphism partition of the growing graph.
//
// The `unit` parameter generalizes the textbook operation: Algorithm 1
// always copies the cell's original members, while the vertex-minimal
// variant (Section 5.1) and exact backbone sampling (Algorithm 3) copy a
// smaller generating unit inside the cell.
//
// The growing graph is never materialized while copying: it is the
// untouched base graph (an in-memory Graph or an out-of-core ShardedGraph)
// plus a ReleaseDelta holding only what the copies added (DESIGN.md §11).
// Rule 1 only attaches copies to existing vertices and rule 2 only connects
// copies, so an original's released row is its sorted base row followed by
// its sorted delta row (all ids >= n) — no merge.

#ifndef KSYM_KSYM_ORBIT_COPY_H_
#define KSYM_KSYM_ORBIT_COPY_H_

#include <algorithm>
#include <span>
#include <vector>

#include "common/check.h"
#include "graph/graph.h"
#include "ksym/partition.h"

namespace ksym {

/// The adjacency orbit copying adds on top of a base graph of
/// `base_vertices` vertices: for each original, the copies attached to it
/// (ids >= base_vertices); for each copy, its whole row. Rows are kept in
/// insertion order; AppendReleasedRow sorts them on the way out.
class ReleaseDelta {
 public:
  explicit ReleaseDelta(size_t base_vertices)
      : base_vertices_(base_vertices), added_(base_vertices) {}

  size_t base_vertices() const { return base_vertices_; }
  size_t NumVertices() const { return base_vertices_ + new_rows_.size(); }
  size_t added_edges() const { return added_edges_; }

  VertexId AddVertex() {
    new_rows_.emplace_back();
    return static_cast<VertexId>(NumVertices() - 1);
  }

  /// Records the new undirected edge {u, v}, which must be absent: the copy
  /// rules never produce a duplicate.
  void AddEdge(VertexId u, VertexId v) {
    KSYM_DCHECK(u != v);
    Row(u).push_back(v);
    Row(v).push_back(u);
    ++added_edges_;
  }

  /// Neighbors added to `v`: for an original, those on top of its base
  /// row; for a copy, its whole row. Unsorted (insertion order).
  std::span<const VertexId> added(VertexId v) const {
    KSYM_DCHECK(v < NumVertices());
    return v < base_vertices_
               ? std::span<const VertexId>(added_[v])
               : std::span<const VertexId>(new_rows_[v - base_vertices_]);
  }

 private:
  std::vector<VertexId>& Row(VertexId v) {
    KSYM_DCHECK(v < NumVertices());
    return v < base_vertices_ ? added_[v] : new_rows_[v - base_vertices_];
  }

  size_t base_vertices_;
  std::vector<std::vector<VertexId>> added_;     // Per original.
  std::vector<std::vector<VertexId>> new_rows_;  // Per copy.
  size_t added_edges_ = 0;
};

/// Applies one orbit copying operation to the graph `base` + `delta` and to
/// `partition`, duplicating `unit`: a *sorted* subset of base vertices in
/// cell `cell_index`, closed under intra-cell adjacency (every intra-cell
/// neighbour of a unit vertex is itself in the unit — this holds for whole
/// cells, for the original members of augmented cells, and for unions of
/// connected components of the cell-induced subgraph). Sortedness lets
/// intra-unit copies be resolved by binary search with no per-call map.
///
/// `Base` is Graph or ShardedGraph: anything whose Neighbors(v) returns the
/// sorted base row as a span. A unit member's current neighbourhood is that
/// row followed by delta.added(v). No other `base` access happens while a
/// base row is iterated, so a ShardedGraph span (valid until the next
/// cross-shard access) stays valid.
///
/// Returns the new vertex ids, aligned with `unit`.
template <typename Base>
std::vector<VertexId> OrbitCopy(Base& base, ReleaseDelta& delta,
                                TrackedPartition& partition,
                                uint32_t cell_index,
                                std::span<const VertexId> unit) {
  KSYM_CHECK(!unit.empty());
  KSYM_DCHECK(std::is_sorted(unit.begin(), unit.end()));

  // Create all copies first so intra-unit edges can be wired pairwise. The
  // copy of unit[i] is copies[i].
  std::vector<VertexId> copies;
  copies.reserve(unit.size());
  for (VertexId v : unit) {
    KSYM_CHECK(v < delta.base_vertices());
    KSYM_DCHECK(partition.CellOf(v) == cell_index);
    const VertexId v_copy = delta.AddVertex();
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
    const auto wire = [&](VertexId u) {
      if (partition.CellOf(u) != cell_index) {
        // Rule 1: the copy keeps the exact external adjacency.
        delta.AddEdge(u, v_copy);
      } else {
        // Rule 2: intra-unit edges are mirrored between the copies. The
        // unit must be intra-cell closed, so u has a copy (checked in
        // copy_of); add each mirrored edge once (from the lower-indexed
        // endpoint).
        const VertexId u_copy = copy_of(u);
        if (v < u) delta.AddEdge(v_copy, u_copy);
      }
    };
    // AddEdge never touches v's own delta row (u != v and v_copy != v),
    // and copies were all created above, so both spans stay valid.
    for (VertexId u : base.Neighbors(v)) wire(u);
    for (VertexId u : delta.added(v)) wire(u);
  }
  return copies;
}

/// Appends vertex v's row of the released graph (base + delta) to `out`:
/// the base row (originals only), then the delta row sorted. The one
/// release layout, shared by the in-memory and the streamed release.
template <typename Base>
void AppendReleasedRow(Base& base, const ReleaseDelta& delta, VertexId v,
                       std::vector<VertexId>& out) {
  if (v < delta.base_vertices()) {
    const std::span<const VertexId> row = base.Neighbors(v);
    out.insert(out.end(), row.begin(), row.end());
  }
  const std::span<const VertexId> added = delta.added(v);
  const size_t mark = out.size();
  out.insert(out.end(), added.begin(), added.end());
  std::sort(out.begin() + static_cast<std::ptrdiff_t>(mark), out.end());
}

/// The released graph base + delta as one CSR Graph (Graph::FromCsr checks
/// in debug builds that every row is sorted and duplicate-free).
Graph ReleasedGraph(const Graph& base, const ReleaseDelta& delta);

}  // namespace ksym

#endif  // KSYM_KSYM_ORBIT_COPY_H_
