#include "aut/search.h"

#include <algorithm>
#include <numeric>
#include <span>
#include <tuple>
#include <utility>

#include "aut/refinement.h"
#include "common/rng.h"
#include "perm/union_find.h"

namespace ksym {
namespace {

class AutSearcher {
 public:
  AutSearcher(const Graph& graph, const std::vector<uint32_t>& colors,
              const ExecutionContext* context)
      : graph_(graph),
        n_(graph.NumVertices()),
        colors_(colors),
        refiner_(graph, context),
        global_orbits_(n_),
        mark_(n_, 0) {}

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

  // Explores the node whose (equitable) partition is the current state of
  // `p`; `p` is restored to that state before returning.
  //
  // Sibling orbit pruning runs only at nodes on the first (leftmost) path,
  // where it is exact and free: every generator discovered so far was found
  // at a leaf sharing this node's branch prefix with the first path, hence
  // fixes the prefix pointwise, so the *global* orbit structure is exactly
  // the pruning relation. Off-path subtrees instead rely on invariant
  // pruning plus backjumping (an off-path subtree is abandoned as soon as
  // it produces one automorphism).
  Outcome Explore(OrderedPartition& p, size_t depth, bool on_first_path) {
    ++nodes_;
    if (p.IsDiscrete()) return HandleLeaf(p);

    const uint32_t target = p.TargetCell();

    // On the first path children are visited in sorted order (deterministic
    // spine) with orbit pruning. Off the first path the visit order is
    // irrelevant — the subtree is abandoned after its first automorphism —
    // so candidates are fetched lazily from the (mutating) cell segment,
    // avoiding a per-node copy+sort.
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
        // Next sorted child not redundant under the discovered group.
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
        // First segment element not tried yet.
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
        // Building the leftmost spine: record its invariant trace.
        KSYM_DCHECK(first_inv_.size() == depth);
        first_inv_.push_back(inv);
      } else if (depth >= first_inv_.size() || inv != first_inv_[depth]) {
        // A leaf equal to the first leaf must share the first path's
        // invariant trace; anything else is a dead subtree.
        pruned = true;
      }

      Outcome outcome = Outcome::kContinue;
      if (!pruned) {
        outcome = Explore(p, depth + 1, on_first_path && is_leftmost_child);
      }
      p.RevertTo(mark);
      is_leftmost_child = false;
      if (outcome == Outcome::kAutFound && !on_first_path) {
        // Backjump: this subtree is an automorphic image of an explored
        // one; its remaining branches yield nothing new.
        return Outcome::kAutFound;
      }
    }
    return Outcome::kContinue;
  }

  Outcome HandleLeaf(const OrderedPartition& p) {
    const Permutation lab = p.ToLabeling();
    if (!have_first_) {
      have_first_ = true;
      first_inverse_ = lab.Inverse();
      return Outcome::kContinue;
    }
    // g = lab · first⁻¹ sends each vertex to the vertex that holds its
    // position in the first leaf. Both leaves refine the same colour cells
    // position for position, so g preserves colours.
    Permutation g = lab.Compose(first_inverse_);
    if (g.IsIdentity() || !MapsEdgesToEdges(g)) return Outcome::kContinue;
    for (VertexId x = 0; x < n_; ++x) global_orbits_.Union(x, g.Image(x));
    generators_.push_back(std::move(g));
    return Outcome::kAutFound;
  }

  // The leaf certificate, O(n + m): true iff g maps every edge to an edge.
  // g is a bijection, so its map on edges is injective, hence onto the
  // finite edge set: g is an automorphism exactly when this holds.
  bool MapsEdgesToEdges(const Permutation& g) {
    for (VertexId u = 0; u < n_; ++u) {
      const std::span<const VertexId> nu = graph_.Neighbors(u);
      const std::span<const VertexId> ngu = graph_.Neighbors(g.Image(u));
      if (nu.size() != ngu.size()) return false;
      if (nu.empty()) continue;
      if (++stamp_ == 0) {  // Wrapped: clear stale stamps.
        std::fill(mark_.begin(), mark_.end(), 0);
        stamp_ = 1;
      }
      for (VertexId w : ngu) mark_[w] = stamp_;
      for (VertexId v : nu) {
        if (mark_[g.Image(v)] != stamp_) return false;
      }
    }
    return true;
  }

  const Graph& graph_;
  const VertexId n_;
  const std::vector<uint32_t>& colors_;
  Refiner refiner_;

  bool have_first_ = false;
  std::vector<uint64_t> first_inv_;  // Invariant trace of the leftmost path.
  Permutation first_inverse_;        // First leaf's position -> vertex.

  std::vector<Permutation> generators_;
  UnionFind global_orbits_;
  uint64_t nodes_ = 0;

  // Scratch for MapsEdgesToEdges: mark_[w] == stamp_ iff w ∈ N(g(u)).
  std::vector<uint32_t> mark_;
  uint32_t stamp_ = 0;
};

// N[u] == N[v] (closed neighbourhoods): u ~ v and N(u) - v == N(v) - u.
bool SameClosedNeighborhood(const Graph& graph, VertexId u, VertexId v) {
  const std::span<const VertexId> a = graph.Neighbors(u);
  const std::span<const VertexId> b = graph.Neighbors(v);
  if (a.size() != b.size() || !std::binary_search(a.begin(), a.end(), v)) {
    return false;
  }
  size_t i = 0;
  size_t j = 0;
  while (true) {
    if (i < a.size() && a[i] == v) ++i;
    if (j < b.size() && b[j] == u) ++j;
    if (i == a.size() || j == b.size()) return i == a.size() && j == b.size();
    if (a[i++] != b[j++]) return false;
  }
}

// rep[v] = the minimum vertex with v's colour and v's open (closed == false)
// or closed neighbourhood. Vertices are bucketed by (colour, degree, an
// order-free hash of the neighbourhood), and each bucket is split by exact
// neighbour-list comparison, so a hash collision never merges two classes.
std::vector<VertexId> TwinRepresentatives(const Graph& graph,
                                          const std::vector<uint32_t>& colors,
                                          bool closed) {
  const VertexId n = static_cast<VertexId>(graph.NumVertices());
  auto mix = [](VertexId x) {
    uint64_t state = x;
    return SplitMix64(state);
  };
  // ((colour, degree, hash), vertex), sorted: buckets are runs of equal
  // first halves, each in ascending vertex order.
  std::vector<std::pair<std::tuple<uint32_t, size_t, uint64_t>, VertexId>>
      keys(n);
  for (VertexId v = 0; v < n; ++v) {
    uint64_t hash = closed ? mix(v) : 0;
    for (VertexId w : graph.Neighbors(v)) hash += mix(w);
    keys[v] = {{colors.empty() ? 0 : colors[v], graph.Degree(v), hash}, v};
  }
  std::sort(keys.begin(), keys.end());

  std::vector<VertexId> rep(n);
  std::vector<VertexId> bucket_reps;
  for (size_t begin = 0; begin < n;) {
    size_t end = begin + 1;
    while (end < n && keys[end].first == keys[begin].first) ++end;
    bucket_reps.clear();
    for (size_t i = begin; i < end; ++i) {
      const VertexId v = keys[i].second;
      rep[v] = v;
      for (VertexId r : bucket_reps) {
        const bool same =
            closed ? SameClosedNeighborhood(graph, r, v)
                   : std::ranges::equal(graph.Neighbors(r), graph.Neighbors(v));
        if (same) {
          rep[v] = r;
          break;
        }
      }
      if (rep[v] == v) bucket_reps.push_back(v);
    }
    begin = end;
  }
  return rep;
}

// The twin quotient Q of a coloured graph G. Twins — same colour and the
// same open or closed neighbourhood — form classes; Q has one vertex per
// class, and Q vertices are adjacent iff their classes are (twin classes
// are joined completely or not at all). A class of open twins is
// independent in G and one of closed twins is a clique, so G is Q with
// each vertex blown up by its (twin type, size): Aut(G) is the lift of
// Aut(Q, (colour, type, size)) times the symmetric groups of the classes.
struct TwinQuotient {
  Graph graph;
  std::vector<uint32_t> colors;  // Dense rank of (colour, twin type, size).
  std::vector<uint32_t> class_of;  // G vertex -> Q vertex.
  // Class c is members[offsets[c] .. offsets[c + 1]), ascending. Classes
  // are numbered in order of their minimum member.
  std::vector<uint32_t> offsets;
  std::vector<VertexId> members;

  std::span<const VertexId> Members(uint32_t c) const {
    return {members.data() + offsets[c], offsets[c + 1] - offsets[c]};
  }
};

TwinQuotient BuildTwinQuotient(const Graph& graph,
                               const std::vector<uint32_t>& colors) {
  const VertexId n = static_cast<VertexId>(graph.NumVertices());
  const std::vector<VertexId> open = TwinRepresentatives(graph, colors, false);
  const std::vector<VertexId> closed = TwinRepresentatives(graph, colors, true);
  std::vector<uint32_t> open_size(n, 0);
  std::vector<uint32_t> closed_size(n, 0);
  for (VertexId v = 0; v < n; ++v) {
    ++open_size[open[v]];
    ++closed_size[closed[v]];
  }

  // A vertex with an open twin w and a closed twin x would have
  // x ∈ N(v) = N(w), so w ∈ N[x] = N[v], yet open twins are non-adjacent:
  // the nontrivial classes of the two kinds are disjoint, and taking the
  // open class where it is nontrivial and the closed class otherwise
  // partitions V.
  TwinQuotient q;
  q.class_of.resize(n);
  std::vector<uint32_t> class_of_rep(n);
  std::vector<std::tuple<uint32_t, uint32_t, uint32_t>> keys;
  for (VertexId v = 0; v < n; ++v) {
    KSYM_DCHECK(open_size[open[v]] == 1 || closed_size[closed[v]] == 1);
    const bool is_closed = open_size[open[v]] == 1;
    const VertexId r = is_closed ? closed[v] : open[v];
    if (r == v) {  // Minimum member: a new class.
      class_of_rep[v] = static_cast<uint32_t>(keys.size());
      const uint32_t size = is_closed ? closed_size[v] : open_size[v];
      keys.emplace_back(colors.empty() ? 0 : colors[v],
                        is_closed && size > 1 ? 1u : 0u, size);
    }
    q.class_of[v] = class_of_rep[r];
  }
  const uint32_t num_classes = static_cast<uint32_t>(keys.size());

  std::vector<std::tuple<uint32_t, uint32_t, uint32_t>> ranks = keys;
  std::sort(ranks.begin(), ranks.end());
  ranks.erase(std::unique(ranks.begin(), ranks.end()), ranks.end());
  q.colors.resize(num_classes);
  for (uint32_t c = 0; c < num_classes; ++c) {
    q.colors[c] = static_cast<uint32_t>(
        std::lower_bound(ranks.begin(), ranks.end(), keys[c]) - ranks.begin());
  }

  q.offsets.assign(num_classes + 1, 0);
  for (VertexId v = 0; v < n; ++v) ++q.offsets[q.class_of[v] + 1];
  for (uint32_t c = 0; c < num_classes; ++c) q.offsets[c + 1] += q.offsets[c];
  q.members.resize(n);
  std::vector<uint32_t> cursor(q.offsets.begin(), q.offsets.end() - 1);
  for (VertexId v = 0; v < n; ++v) q.members[cursor[q.class_of[v]]++] = v;

  GraphBuilder builder(num_classes);
  for (uint32_t c = 0; c < num_classes; ++c) {
    for (VertexId w : graph.Neighbors(q.Members(c).front())) {
      const uint32_t d = q.class_of[w];
      if (c < d) builder.AddEdge(c, d);
    }
  }
  q.graph = builder.Build();
  return q;
}

// Lifts Q's orbits to G: a vertex's orbit is the union of the classes in
// its class's Q-orbit. Classes are numbered by minimum member and Q's
// orbit_rep is the minimum class, so its first member is the minimum of the
// G-orbit.
std::vector<VertexId> LiftOrbits(const TwinQuotient& q,
                                 const std::vector<VertexId>& quotient_rep) {
  std::vector<VertexId> orbit_rep(q.class_of.size());
  for (VertexId v = 0; v < orbit_rep.size(); ++v) {
    orbit_rep[v] = q.Members(quotient_rep[q.class_of[v]]).front();
  }
  return orbit_rep;
}

// Lifts Q's generators to G: each σ maps the i-th member of class A to the
// i-th member of σ(A), and the adjacent transpositions of every class
// generate its symmetric group.
std::vector<Permutation> LiftGenerators(
    const TwinQuotient& q, const std::vector<Permutation>& quotient_gens) {
  const size_t n = q.class_of.size();
  const uint32_t num_classes = static_cast<uint32_t>(q.offsets.size() - 1);
  std::vector<Permutation> generators;
  for (const Permutation& sigma : quotient_gens) {
    std::vector<VertexId> images(n);
    for (uint32_t c = 0; c < num_classes; ++c) {
      const std::span<const VertexId> from = q.Members(c);
      const std::span<const VertexId> to = q.Members(sigma.Image(c));
      KSYM_DCHECK(from.size() == to.size());
      for (size_t i = 0; i < from.size(); ++i) images[from[i]] = to[i];
    }
    generators.emplace_back(std::move(images));
  }
  for (uint32_t c = 0; c < num_classes; ++c) {
    const std::span<const VertexId> members = q.Members(c);
    for (size_t i = 1; i < members.size(); ++i) {
      std::vector<VertexId> images(n);
      std::iota(images.begin(), images.end(), 0u);
      std::swap(images[members[i - 1]], images[members[i]]);
      generators.emplace_back(std::move(images));
    }
  }
  return generators;
}

}  // namespace

AutomorphismResult ComputeAutomorphisms(const Graph& graph,
                                        const std::vector<uint32_t>& colors,
                                        const ExecutionContext* context) {
  KSYM_CHECK(colors.empty() || colors.size() == graph.NumVertices());
  const TwinQuotient q = BuildTwinQuotient(graph, colors);
  const AutomorphismResult quotient =
      AutSearcher(q.graph, q.colors, context).Run();
  AutomorphismResult result;
  result.generators = LiftGenerators(q, quotient.generators);
  result.orbit_rep = LiftOrbits(q, quotient.orbit_rep);
  result.nodes = quotient.nodes;
  return result;
}

std::vector<VertexId> ComputeOrbitRepresentatives(
    const Graph& graph, const std::vector<uint32_t>& colors,
    const ExecutionContext* context) {
  KSYM_CHECK(colors.empty() || colors.size() == graph.NumVertices());
  const TwinQuotient q = BuildTwinQuotient(graph, colors);
  return LiftOrbits(q, AutSearcher(q.graph, q.colors, context).Run().orbit_rep);
}

}  // namespace ksym
