#include "bench_inputs.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/rng.h"
#include "graph/generators.h"

namespace ksymbench {
namespace {

uint64_t EdgeKey(ksym::VertexId u, ksym::VertexId v) {
  if (u > v) std::swap(u, v);
  return (uint64_t{u} << 32) | v;
}

/// The edge set as a vector with O(1) removal by swap-with-last, plus an
/// index so membership and removal are constant time.
class EdgeSet {
 public:
  explicit EdgeSet(const ksym::Graph& graph) {
    for (const auto& [u, v] : graph.Edges()) Insert(u, v);
  }

  bool Contains(ksym::VertexId u, ksym::VertexId v) const {
    return index_.count(EdgeKey(u, v)) != 0;
  }

  bool Insert(ksym::VertexId u, ksym::VertexId v) {
    const uint64_t key = EdgeKey(u, v);
    if (!index_.emplace(key, keys_.size()).second) return false;
    keys_.push_back(key);
    return true;
  }

  bool Erase(ksym::VertexId u, ksym::VertexId v) {
    const auto it = index_.find(EdgeKey(u, v));
    if (it == index_.end()) return false;
    const size_t slot = it->second;
    index_.erase(it);
    if (slot + 1 != keys_.size()) {
      keys_[slot] = keys_.back();
      index_[keys_[slot]] = slot;
    }
    keys_.pop_back();
    return true;
  }

  size_t size() const { return keys_.size(); }
  uint64_t At(size_t i) const { return keys_[i]; }

  ksym::Graph ToGraph(size_t n) const {
    ksym::GraphBuilder builder(n);
    for (uint64_t key : keys_) {
      builder.AddEdge(static_cast<ksym::VertexId>(key >> 32),
                      static_cast<ksym::VertexId>(key & 0xffffffffu));
    }
    return builder.Build();
  }

 private:
  std::vector<uint64_t> keys_;
  std::unordered_map<uint64_t, size_t> index_;
};

}  // namespace

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t state = seed ^ (0x9E3779B97F4A7C15ull * (stream + 1));
  return ksym::SplitMix64(state);
}

ksym::Graph MakeSocialGraph(size_t n, uint64_t seed) {
  constexpr double kGamma = 2.2;
  constexpr size_t kMaxDegree = 2000;
  ksym::Rng rng(seed);
  std::vector<double> cdf;
  cdf.reserve(kMaxDegree);
  double total = 0.0;
  for (size_t d = 1; d <= kMaxDegree; ++d) {
    total += std::pow(static_cast<double>(d), -kGamma);
    cdf.push_back(total);
  }
  // Stratified draw: vertex i takes the degree at quantile (i + u) / n of
  // the power law, then the degrees are shuffled. Every seed gets nearly
  // the same degree multiset, hubs included; the seed moves the jitter and
  // the wiring. So a graph's cost varies less from seed to seed than with
  // independent draws, whose hub count alone swings the refinement time.
  std::vector<size_t> degrees(n);
  uint64_t stubs = 0;
  for (size_t i = 0; i < n; ++i) {
    const double u = (static_cast<double>(i) + rng.NextDouble()) /
                     static_cast<double>(n) * total;
    const size_t d = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    degrees[i] = 1 + std::min(d, kMaxDegree - 1);
    stubs += degrees[i];
  }
  rng.Shuffle(degrees.begin(), degrees.end());
  if (stubs % 2 != 0) ++degrees[0];
  // The sum is even and every degree is below n (the callers' n exceed
  // kMaxDegree), the model's two failure conditions.
  return ksym::ConfigurationModel(degrees, rng).value();
}

std::vector<ksym::dyn::EditBatch> MakeEditTrace(const ksym::Graph& base,
                                                size_t epochs, size_t inserts,
                                                size_t deletes,
                                                uint64_t seed) {
  ksym::Rng rng(seed);
  const size_t n = base.NumVertices();
  EdgeSet edges(base);
  // An endpoint of a uniformly drawn edge is a degree-proportional vertex.
  std::vector<ksym::dyn::EditBatch> trace(epochs);
  for (ksym::dyn::EditBatch& batch : trace) {
    std::unordered_set<uint64_t> touched;
    for (size_t i = 0; i < deletes; ++i) {
      while (true) {
        const uint64_t key = edges.At(rng.NextBounded(edges.size()));
        if (!touched.insert(key).second) continue;
        const auto u = static_cast<ksym::VertexId>(key >> 32);
        const auto v = static_cast<ksym::VertexId>(key & 0xffffffffu);
        batch.Delete(u, v);
        break;
      }
    }
    for (size_t i = 0; i < inserts; ++i) {
      while (true) {
        const uint64_t arc = edges.At(rng.NextBounded(edges.size()));
        const auto u = static_cast<ksym::VertexId>(
            rng.NextBernoulli(0.5) ? arc >> 32 : arc & 0xffffffffu);
        const auto v = static_cast<ksym::VertexId>(rng.NextBounded(n));
        if (u == v || edges.Contains(u, v)) continue;
        if (!touched.insert(EdgeKey(u, v)).second) continue;
        batch.Insert(u, v);
        break;
      }
    }
    for (const ksym::dyn::Edit& e : batch.edits()) {
      if (e.insert) {
        edges.Insert(e.u, e.v);
      } else {
        edges.Erase(e.u, e.v);
      }
    }
  }
  return trace;
}

ksym::Result<ksym::Graph> ApplyEditTrace(
    const ksym::Graph& base, const std::vector<ksym::dyn::EditBatch>& trace,
    size_t epochs) {
  EdgeSet edges(base);
  for (size_t epoch = 0; epoch < epochs && epoch < trace.size(); ++epoch) {
    for (const ksym::dyn::Edit& e : trace[epoch].edits()) {
      if (e.u == e.v || e.u >= base.NumVertices() ||
          e.v >= base.NumVertices()) {
        return ksym::Status::InvalidArgument("edit endpoint out of range");
      }
      const bool ok = e.insert ? edges.Insert(e.u, e.v) : edges.Erase(e.u, e.v);
      if (!ok) {
        return ksym::Status::InvalidArgument(
            "edit trace epoch " + std::to_string(epoch + 1) + ": " +
            (e.insert ? "insert of a present edge"
                      : "delete of an absent edge"));
      }
    }
  }
  return edges.ToGraph(base.NumVertices());
}

}  // namespace ksymbench
