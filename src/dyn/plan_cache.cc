#include "dyn/plan_cache.h"

#include <utility>

namespace ksym {
namespace dyn {

namespace {

size_t ApproxPlanBytes(const CachedPlan& plan) {
  return sizeof(CachedPlan) + ApproxPartitionBytes(plan.tdv);
}

}  // namespace

std::shared_ptr<const CachedPlan> PlanCache::GetPlan(uint64_t graph_checksum) {
  return std::static_pointer_cast<const CachedPlan>(
      lru_.Lookup(CacheKey{'p', graph_checksum, 0}));
}

std::shared_ptr<const CachedPlan> PlanCache::PutPlan(uint64_t graph_checksum,
                                                     CachedPlan plan) {
  const size_t bytes = ApproxPlanBytes(plan);
  auto value = std::make_shared<CachedPlan>(std::move(plan));
  return std::static_pointer_cast<const CachedPlan>(
      lru_.Insert(CacheKey{'p', graph_checksum, 0}, bytes, std::move(value)));
}

std::shared_ptr<const ReleaseTriple> PlanCache::GetRelease(
    uint64_t graph_checksum, uint32_t k) {
  return std::static_pointer_cast<const ReleaseTriple>(
      lru_.Lookup(CacheKey{'r', graph_checksum, k}));
}

std::shared_ptr<const ReleaseTriple> PlanCache::PutRelease(
    uint64_t graph_checksum, uint32_t k, ReleaseTriple release) {
  const size_t bytes = ApproxReleaseBytes(release);
  auto value = std::make_shared<ReleaseTriple>(std::move(release));
  return std::static_pointer_cast<const ReleaseTriple>(
      lru_.Insert(CacheKey{'r', graph_checksum, k}, bytes, std::move(value)));
}

}  // namespace dyn
}  // namespace ksym
