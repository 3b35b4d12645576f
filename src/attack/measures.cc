#include "attack/measures.h"

#include <algorithm>
#include <array>
#include <utility>

#include "attack/intern.h"
#include "aut/isomorphism.h"
#include "aut/refinement.h"
#include "graph/algorithms.h"

namespace ksym {
namespace {

using attack_internal::InternLabels;

std::vector<std::vector<uint32_t>> NeighborDegreeSequences(
    const Graph& graph, const ExecutionContext* context) {
  std::vector<std::vector<uint32_t>> sequences(graph.NumVertices());
  ThreadPool* pool = context == nullptr ? nullptr : context->pool();
  ParallelFor(pool, graph.NumVertices(),
              [&graph, &sequences](size_t begin, size_t end, uint32_t) {
                for (VertexId v = static_cast<VertexId>(begin); v < end; ++v) {
                  auto& seq = sequences[v];
                  seq.reserve(graph.Degree(v));
                  for (VertexId u : graph.Neighbors(v)) {
                    seq.push_back(static_cast<uint32_t>(graph.Degree(u)));
                  }
                  std::sort(seq.begin(), seq.end());
                }
              });
  return sequences;
}

}  // namespace

StructuralMeasure DegreeMeasure(const ExecutionContext* context) {
  return {"degree", [context](const Graph& graph) {
            std::vector<uint32_t> keys(graph.NumVertices());
            ThreadPool* pool = context == nullptr ? nullptr : context->pool();
            ParallelFor(pool, graph.NumVertices(),
                        [&graph, &keys](size_t begin, size_t end, uint32_t) {
                          for (VertexId v = static_cast<VertexId>(begin);
                               v < end; ++v) {
                            keys[v] = static_cast<uint32_t>(graph.Degree(v));
                          }
                        });
            return InternLabels(std::move(keys));
          }};
}

StructuralMeasure TriangleMeasure(const ExecutionContext* context) {
  return {"triangle", [context](const Graph& graph) {
            return InternLabels(TriangleCounts(graph, context));
          }};
}

StructuralMeasure NeighborDegreeSequenceMeasure(
    const ExecutionContext* context) {
  return {"neighbor-degrees", [context](const Graph& graph) {
            return InternLabels(NeighborDegreeSequences(graph, context));
          }};
}

StructuralMeasure CombinedMeasure(const ExecutionContext* context) {
  return {"combined", [context](const Graph& graph) {
            const std::vector<uint64_t> tri = TriangleCounts(graph, context);
            std::vector<std::pair<std::vector<uint32_t>, uint64_t>> keys;
            keys.reserve(graph.NumVertices());
            auto sequences = NeighborDegreeSequences(graph, context);
            for (VertexId v = 0; v < graph.NumVertices(); ++v) {
              keys.emplace_back(std::move(sequences[v]), tri[v]);
            }
            return InternLabels(std::move(keys));
          }};
}

StructuralMeasure NeighborhoodMeasure(const ExecutionContext* context) {
  return {"neighborhood", [context](const Graph& graph) {
            // Ego networks up to this size are split exactly; larger (hub)
            // ones keep their refinement-trace key, which is
            // isomorphism-invariant, so a collision can only *merge*
            // classes — a conservative (weaker) adversary, never an
            // inconsistent one.
            constexpr size_t kExactLimit = 64;
            const size_t n = graph.NumVertices();
            ThreadPool* pool = context == nullptr ? nullptr : context->pool();
            // Each shard carries its own extractor — pulling n ego networks
            // through InducedSubgraph would pay an O(n) remap allocation
            // each, an O(n^2) total; the extractor's scratch makes each pull
            // O(ego size). The centre is ego vertex 0, coloured 1, so the
            // class is rooted.
            const auto ego_net = [&graph](SubgraphExtractor& extractor,
                                          VertexId v) {
              std::vector<VertexId> ego(1, v);
              const auto neighbors = graph.Neighbors(v);
              ego.insert(ego.end(), neighbors.begin(), neighbors.end());
              return extractor.Extract(ego);
            };
            const auto centre_colors = [](const Graph& ego) {
              std::vector<uint32_t> colors(ego.NumVertices(), 0);
              colors[0] = 1;
              return colors;
            };

            // Key: (size, edges, rooted refinement trace, cell count), a
            // pure function of the ego network written to its own slot, so
            // the vertex range shards freely.
            std::vector<std::array<uint64_t, 4>> keys(n);
            ParallelFor(pool, n, [&](size_t begin, size_t end, uint32_t) {
              SubgraphExtractor extractor(graph);
              for (VertexId v = static_cast<VertexId>(begin); v < end; ++v) {
                const Graph ego = ego_net(extractor, v);
                OrderedPartition partition(ego.NumVertices(),
                                           centre_colors(ego));
                Refiner refiner(ego);
                const uint64_t trace = refiner.RefineAll(partition);
                keys[v] = {ego.NumVertices(), ego.NumEdges(), trace,
                           partition.NumCells()};
              }
            });

            // Bucket the vertices by key, each bucket in vertex order.
            const std::vector<uint32_t> key_label =
                InternLabels(std::move(keys));
            std::vector<std::vector<VertexId>> buckets;
            for (VertexId v = 0; v < n; ++v) {
              if (key_label[v] == buckets.size()) buckets.emplace_back();
              buckets[key_label[v]].push_back(v);
            }

            // rep[v]: the first vertex of v's class. A small ego net joins
            // the first earlier representative of its bucket it is
            // isomorphic to; buckets are independent, so they run in
            // parallel and the result does not depend on the thread count.
            std::vector<VertexId> rep(n);
            ParallelFor(pool, buckets.size(), [&](size_t begin, size_t end,
                                                  uint32_t) {
              SubgraphExtractor extractor(graph);
              std::vector<std::pair<VertexId, Graph>> reps;
              for (size_t b = begin; b < end; ++b) {
                const std::vector<VertexId>& bucket = buckets[b];
                if (bucket.size() == 1 ||
                    graph.Degree(bucket.front()) + 1 > kExactLimit) {
                  for (VertexId v : bucket) rep[v] = bucket.front();
                  continue;
                }
                reps.clear();
                for (VertexId v : bucket) {
                  Graph ego = ego_net(extractor, v);
                  const std::vector<uint32_t> colors = centre_colors(ego);
                  rep[v] = v;
                  for (const auto& [r, r_ego] : reps) {
                    if (AreIsomorphic(ego, r_ego, colors, colors)) {
                      rep[v] = r;
                      break;
                    }
                  }
                  if (rep[v] == v) reps.emplace_back(v, std::move(ego));
                }
              }
            });
            return InternLabels(std::move(rep));
          }};
}

VertexPartition PartitionByMeasure(const Graph& graph,
                                   const StructuralMeasure& measure) {
  const std::vector<uint32_t> labels = measure.eval(graph);
  KSYM_CHECK(labels.size() == graph.NumVertices());
  // Convert labels to representatives (minimum vertex with the label).
  std::vector<VertexId> rep_of_label(labels.size(), kInvalidVertex);
  std::vector<VertexId> rep(labels.size());
  for (VertexId v = 0; v < labels.size(); ++v) {
    if (rep_of_label[labels[v]] == kInvalidVertex) rep_of_label[labels[v]] = v;
    rep[v] = rep_of_label[labels[v]];
  }
  return VertexPartition::FromRepresentatives(rep);
}

std::vector<VertexId> CandidateSet(const Graph& graph,
                                   const StructuralMeasure& measure,
                                   VertexId v) {
  const VertexPartition partition = PartitionByMeasure(graph, measure);
  return partition.cells[partition.cell_of[v]];
}

}  // namespace ksym
