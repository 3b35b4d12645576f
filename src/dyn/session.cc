#include "dyn/session.h"

#include <utility>

#include "aut/refinement.h"
#include "ksym/anonymizer.h"

namespace ksym {
namespace dyn {

DynamicSession::DynamicSession(std::string name, Graph base,
                               double compact_ratio, PlanCache* cache)
    : name_(std::move(name)),
      graph_(std::move(base)),
      compact_ratio_(compact_ratio),
      cache_(cache) {}

Status DynamicSession::Stage(const EditBatch& edits) {
  if (edits.empty()) {
    return Status::InvalidArgument("mutate with no edits");
  }
  EditBatch combined = staged_;
  for (const Edit& e : edits.edits()) combined.Add(e);
  KSYM_RETURN_IF_ERROR(graph_.Validate(combined));
  staged_ = std::move(combined);
  ++stats_.mutates;
  return Status::Ok();
}

Result<CommitOutcome> DynamicSession::Commit() {
  if (staged_.empty()) {
    return Status::FailedPrecondition(
        "commit with no staged edits (mutate first)");
  }
  KSYM_RETURN_IF_ERROR(graph_.Apply(staged_));
  const std::vector<VertexId> endpoints = staged_.Endpoints();
  touched_since_plan_.insert(touched_since_plan_.end(), endpoints.begin(),
                             endpoints.end());
  CommitOutcome outcome;
  outcome.edits = staged_.size();
  outcome.touched_vertices = endpoints.size();
  outcome.num_edges = graph_.NumEdges();
  staged_.clear();
  ++stats_.commits;
  stats_.edits_committed += outcome.edits;
  if (graph_.OverlayRatio() > compact_ratio_) {
    graph_.CompactInPlace();
    outcome.compacted = true;
    ++stats_.compactions;
  }
  outcome.overlay_ratio = graph_.OverlayRatio();
  return outcome;
}

Result<ReanonymizeOutcome> DynamicSession::Reanonymize(
    uint32_t k, const ExecutionContext* context) {
  ++stats_.reanonymizes;
  ReanonymizeOutcome outcome;
  outcome.graph_checksum = graph_.ContentChecksum();

  if (std::shared_ptr<const ReleaseTriple> release =
          cache_->GetRelease(outcome.graph_checksum, k)) {
    // Warm path: no refinement, no orbit copy, nothing but the lookup.
    outcome.release = std::move(release);
    outcome.release_cache_hit = true;
    ++stats_.release_cache_hits;
    if (std::shared_ptr<const CachedPlan> plan =
            cache_->GetPlan(outcome.graph_checksum)) {
      outcome.partition_checksum = plan->partition_checksum;
    }
    return outcome;
  }

  std::shared_ptr<const CachedPlan> plan =
      cache_->GetPlan(outcome.graph_checksum);
  if (plan != nullptr) {
    outcome.plan_cache_hit = true;
    ++stats_.plan_cache_hits;
  } else {
    // Delta-aware reuse: repair from the anchor state's cached plan when
    // the chain is intact, else refine from scratch.
    std::shared_ptr<const CachedPlan> parent;
    if (has_plan_anchor_ && !touched_since_plan_.empty()) {
      parent = cache_->GetPlan(plan_anchor_checksum_);
    }
    DeltaNeighborSource source(graph_);
    CachedPlan fresh;
    if (parent != nullptr) {
      KSYM_ASSIGN_OR_RETURN(
          fresh.tdv,
          RepairTotalDegreePartition(source, parent->tdv,
                                     touched_since_plan_, context,
                                     &outcome.repair));
      outcome.repaired = true;
      ++stats_.repairs;
    } else {
      ScopedPhaseTimer timer(context, &RefinementStats::partition_seconds);
      uint64_t trace = 0;
      fresh.tdv = VertexPartition::FromCells(
          graph_.NumVertices(),
          EquitablePartition(source, RefinementOptions{
                                         .context = context,
                                         .trace_hash = &trace}));
      fresh.trace_hash = trace;
      ++stats_.full_refines;
    }
    fresh.partition_checksum = PartitionChecksum(fresh.tdv);
    plan = cache_->PutPlan(outcome.graph_checksum, std::move(fresh));
  }
  outcome.partition_checksum = plan->partition_checksum;
  // This state's plan is cached: re-anchor the chain here.
  has_plan_anchor_ = true;
  plan_anchor_checksum_ = outcome.graph_checksum;
  touched_since_plan_.clear();

  // Orbit copy on the resident merged graph. Algorithm 1 reads each base
  // row as one contiguous span, which the overlay view does not have, so
  // compact if needed — the checksum, and therefore the cache key, is
  // unchanged by compaction.
  Graph compacted;
  const Graph* resident = &graph_.base();
  if (graph_.HasOverlay()) {
    compacted = graph_.Compact();
    resident = &compacted;
  }
  AnonymizationOptions options;
  options.k = k;
  options.use_total_degree_partition = true;
  options.context = context;
  KSYM_ASSIGN_OR_RETURN(AnonymizationResult result,
                        AnonymizeWithPartition(*resident, plan->tdv, options));
  outcome.vertices_added = result.vertices_added;
  outcome.edges_added = result.edges_added;
  outcome.release = cache_->PutRelease(outcome.graph_checksum, k,
                                       MakeReleaseTriple(result));
  return outcome;
}

Result<std::shared_ptr<DynamicRegistry::Entry>> DynamicRegistry::Create(
    const std::string& name, Graph base, double compact_ratio) {
  std::lock_guard<std::mutex> lock(mu_);
  if (sessions_.count(name) != 0) {
    return Status::InvalidArgument("dynamic session '" + name +
                                   "' already exists");
  }
  auto entry = std::make_shared<Entry>(name, std::move(base), compact_ratio,
                                       &plan_cache_);
  sessions_[name] = entry;
  return entry;
}

Result<std::shared_ptr<DynamicRegistry::Entry>> DynamicRegistry::Find(
    const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(name);
  if (it == sessions_.end()) {
    return Status::NotFound("no dynamic session named '" + name +
                            "' (create one with the mutate op's 'input' " +
                            "field)");
  }
  return it->second;
}

size_t DynamicRegistry::num_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

}  // namespace dyn
}  // namespace ksym
