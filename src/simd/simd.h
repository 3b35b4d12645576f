// Kept only because ksymbench/ksym_bench.cc still reads these names; the
// library has no vector kernels (DESIGN.md §13), so the level is always
// scalar and every counter reads 0. Delete with the next benchmark change.

#ifndef KSYM_SIMD_SIMD_H_
#define KSYM_SIMD_SIMD_H_

#include <cstdint>

namespace ksym {
namespace simd {

enum class SimdLevel : uint8_t { kScalar = 0 };

constexpr const char* SimdLevelName(SimdLevel) { return "scalar"; }

constexpr SimdLevel ActiveSimdLevel() { return SimdLevel::kScalar; }

struct SimdCallCounts {
  uint64_t intersect = 0;
  uint64_t intersect_gallop = 0;
  uint64_t splitter_dense = 0;
  uint64_t splitter_scalar = 0;
  uint64_t bfs_expand = 0;
};

constexpr SimdCallCounts SimdCallCountsSnapshot() { return {}; }

}  // namespace simd
}  // namespace ksym

#endif  // KSYM_SIMD_SIMD_H_
