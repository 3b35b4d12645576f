#include "serve/cache.h"

#include <fstream>
#include <sstream>
#include <utility>

#include "common/str.h"

namespace ksym {
namespace serve {
namespace {

/// Content checksum of the manifest file — the shard-set cache key. Reads
/// the whole manifest (small: one line per shard), never the shards.
Result<uint64_t> ManifestChecksum(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IoError(
        StrFormat("cannot open manifest %s", path.c_str()));
  }
  std::ostringstream contents;
  contents << in.rdbuf();
  const std::string body = contents.str();
  return CsrChecksum(body.data(), body.size());
}

}  // namespace

Result<std::shared_ptr<const MappedCsrGraph>> GraphCache::GetGraph(
    const std::string& path, bool* hit) {
  KSYM_ASSIGN_OR_RETURN(const CsrFileInfo info, ReadCsrFileInfo(path));
  const CacheKey key{'g', info.header_checksum};
  if (std::shared_ptr<void> found = lru_.Lookup(key)) {
    if (hit != nullptr) *hit = true;
    return std::static_pointer_cast<const MappedCsrGraph>(found);
  }
  if (hit != nullptr) *hit = false;
  KSYM_ASSIGN_OR_RETURN(MappedCsrGraph mapped, MapCsrFile(path));
  const size_t bytes = mapped.mapping.size();
  auto value = std::make_shared<MappedCsrGraph>(std::move(mapped));
  return std::static_pointer_cast<const MappedCsrGraph>(
      lru_.Insert(key, bytes, std::move(value)));
}

Result<std::shared_ptr<const ReleaseTriple>> GraphCache::GetRelease(
    const std::string& path, bool* hit) {
  KSYM_ASSIGN_OR_RETURN(const CsrFileInfo info, ReadCsrFileInfo(path));
  const CacheKey key{'r', info.header_checksum};
  if (std::shared_ptr<void> found = lru_.Lookup(key)) {
    if (hit != nullptr) *hit = true;
    return std::static_pointer_cast<const ReleaseTriple>(found);
  }
  if (hit != nullptr) *hit = false;
  KSYM_ASSIGN_OR_RETURN(ReleaseTriple release, ReadReleaseCsrFile(path));
  const size_t bytes = ApproxReleaseBytes(release);
  auto value = std::make_shared<ReleaseTriple>(std::move(release));
  return std::static_pointer_cast<const ReleaseTriple>(
      lru_.Insert(key, bytes, std::move(value)));
}

Result<std::shared_ptr<CachedShardSet>> GraphCache::GetShardSet(
    const std::string& manifest_path, const ShardedGraphOptions& options,
    bool* hit) {
  KSYM_ASSIGN_OR_RETURN(const uint64_t checksum,
                        ManifestChecksum(manifest_path));
  const CacheKey key{'s', checksum};
  if (std::shared_ptr<void> found = lru_.Lookup(key)) {
    if (hit != nullptr) *hit = true;
    return std::static_pointer_cast<CachedShardSet>(found);
  }
  if (hit != nullptr) *hit = false;
  KSYM_ASSIGN_OR_RETURN(ShardedGraph graph,
                        ShardedGraph::Open(manifest_path, options));
  // Account the set's own residency cap: the most it will keep mapped.
  const size_t bytes = options.max_resident_bytes;
  auto value = std::make_shared<CachedShardSet>(std::move(graph));
  return std::static_pointer_cast<CachedShardSet>(
      lru_.Insert(key, bytes, std::move(value)));
}

}  // namespace serve
}  // namespace ksym
