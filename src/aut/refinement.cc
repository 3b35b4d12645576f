#include "aut/refinement.h"

#include <algorithm>
#include <numeric>

namespace ksym {
namespace {

inline uint64_t HashMix(uint64_t h, uint64_t value) {
  h ^= value + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  h *= 0xFF51AFD7ED558CCDull;
  h ^= h >> 33;
  return h;
}

}  // namespace

OrderedPartition::OrderedPartition(size_t n,
                                   const std::vector<uint32_t>& colors)
    : elements_(n), position_(n), cell_start_(n), cell_size_(n, 0) {
  KSYM_CHECK(colors.empty() || colors.size() == n);
  std::iota(elements_.begin(), elements_.end(), 0u);
  if (!colors.empty()) {
    std::sort(elements_.begin(), elements_.end(),
              [&colors](VertexId a, VertexId b) {
                return colors[a] != colors[b] ? colors[a] < colors[b] : a < b;
              });
  }
  // Carve cells at color boundaries (one cell total if no colors).
  size_t start = 0;
  for (size_t i = 0; i <= n; ++i) {
    const bool boundary =
        i == n || (!colors.empty() && i > start &&
                   colors[elements_[i]] != colors[elements_[start]]);
    if (boundary) {
      if (i > start) {
        cell_size_[start] = static_cast<uint32_t>(i - start);
        for (size_t j = start; j < i; ++j) {
          position_[elements_[j]] = static_cast<uint32_t>(j);
          cell_start_[elements_[j]] = static_cast<uint32_t>(start);
        }
        ++num_cells_;
      }
      start = i;
    }
  }
  if (n == 0) num_cells_ = 0;
}

uint32_t OrderedPartition::TargetCell() const {
  uint32_t pos = target_hint_;
  const uint32_t n = static_cast<uint32_t>(elements_.size());
  while (pos < n && cell_size_[pos] == 1) ++pos;
  target_hint_ = pos;
  return pos < n ? pos : kNoCell;
}

uint32_t OrderedPartition::Individualize(VertexId v) {
  const uint32_t start = cell_start_[v];
  KSYM_CHECK(cell_size_[start] >= 2);
  // Carve [start, size-1] | [v]: the remainder keeps its start id, so only
  // v's bookkeeping changes, O(1), and so is the revert.
  const uint32_t one = 1;
  Carve(start, {&v, 1}, {&one, 1});
  return cell_start_[v];
}

std::vector<std::vector<VertexId>> OrderedPartition::Cells() const {
  std::vector<std::vector<VertexId>> cells;
  cells.reserve(num_cells_);
  uint32_t pos = 0;
  const uint32_t n = static_cast<uint32_t>(elements_.size());
  while (pos < n) {
    const uint32_t size = cell_size_[pos];
    cells.emplace_back(elements_.begin() + pos,
                       elements_.begin() + pos + size);
    pos += size;
  }
  return cells;
}

Permutation OrderedPartition::ToLabeling() const {
  KSYM_CHECK(IsDiscrete());
  std::vector<VertexId> images(position_.begin(), position_.end());
  return Permutation(std::move(images));
}

uint32_t OrderedPartition::Carve(uint32_t start,
                                 std::span<const VertexId> tail,
                                 std::span<const uint32_t> tail_groups) {
  const uint32_t size = cell_size_[start];
  const uint32_t tail_size = static_cast<uint32_t>(tail.size());
  KSYM_DCHECK(tail_size >= 1 && tail_size <= size);
  // Swap each tail member into place. Slots already filled hold earlier
  // tail members, so a later swap never disturbs them.
  const uint32_t tail_start = start + size - tail_size;
  uint32_t displaced = 0;
  for (uint32_t i = 0; i < tail_size; ++i) {
    const VertexId v = tail[i];
    KSYM_DCHECK(cell_start_[v] == start);
    const uint32_t to = tail_start + i;
    const uint32_t from = position_[v];
    if (from == to) continue;
    const VertexId other = elements_[to];
    elements_[from] = other;
    position_[other] = from;
    elements_[to] = v;
    position_[v] = to;
    ++displaced;
  }
  // Cut the groups. Only groups past the first get a new start.
  uint32_t first_size = size - tail_size;
  uint32_t num_groups = first_size > 0 ? 1 : 0;
  uint32_t pos = tail_start;
  for (const uint32_t group_size : tail_groups) {
    if (pos == start) {
      first_size = group_size;
    } else {
      for (uint32_t i = pos; i < pos + group_size; ++i) {
        cell_start_[elements_[i]] = pos;
      }
    }
    cell_size_[pos] = group_size;
    pos += group_size;
    ++num_groups;
  }
  KSYM_DCHECK(pos == start + size);
  KSYM_CHECK(num_groups >= 2);
  cell_size_[start] = first_size;
  num_cells_ += num_groups - 1;
  journal_.push_back({start, size, first_size, num_groups});
  return displaced;
}

void OrderedPartition::RevertTo(size_t mark) {
  KSYM_CHECK(mark <= journal_.size());
  while (journal_.size() > mark) {
    const SplitRecord record = journal_.back();
    journal_.pop_back();
    target_hint_ = std::min(target_hint_, record.start);
    // Later splits inside the first group were reverted already, so only
    // the elements past it name another start.
    cell_size_[record.start] = record.old_size;
    for (uint32_t i = record.start + record.first_size;
         i < record.start + record.old_size; ++i) {
      cell_start_[elements_[i]] = record.start;
    }
    num_cells_ -= record.num_groups - 1;
  }
}

Refiner::Refiner(const Graph& graph) : Refiner(graph, nullptr) {}

Refiner::Refiner(const Graph& graph, const ExecutionContext* context)
    : source_(nullptr),
      owned_source_(std::make_unique<CsrNeighborSource>(graph)),
      context_(context),
      count_(graph.NumVertices(), 0),
      in_queue_(count_.size(), 0),
      cell_touched_(count_.size(), 0) {
  source_ = owned_source_.get();
}

Refiner::Refiner(NeighborSource& source, const ExecutionContext* context)
    : source_(&source),
      context_(context),
      count_(source.NumVertices(), 0),
      in_queue_(count_.size(), 0),
      cell_touched_(count_.size(), 0) {}

void Refiner::Enqueue(uint32_t start) {
  if (in_queue_[start] != 0) return;
  in_queue_[start] = 1;
  worklist_.push_back(start);
}

uint64_t Refiner::RefineAll(OrderedPartition& p) {
  worklist_.clear();
  worklist_.reserve(p.NumCells());
  uint32_t pos = 0;
  const uint32_t n = static_cast<uint32_t>(p.NumVertices());
  while (pos < n) {
    Enqueue(pos);
    pos += p.CellSizeAt(pos);
  }
  return DoRefine(p);
}

uint64_t Refiner::RefineFrom(OrderedPartition& p, uint32_t seed_start) {
  worklist_.clear();
  Enqueue(seed_start);
  return DoRefine(p);
}

uint64_t Refiner::RefineSeeded(OrderedPartition& p,
                               std::span<const uint32_t> seed_starts) {
  worklist_.clear();
  for (const uint32_t start : seed_starts) Enqueue(start);
  return DoRefine(p);
}

uint64_t Refiner::DoRefine(OrderedPartition& p) {
  ScopedPhaseTimer refine_timer(context_, &RefinementStats::refine_seconds);
  uint64_t hash = 0x243F6A8885A308D3ull;
  cells_split_ = touched_vertices_ = elements_scanned_ = 0;
  size_t head = 0;
  while (head < worklist_.size()) {
    const uint32_t w_start = worklist_[head++];
    in_queue_[w_start] = 0;
    ProcessSplitter(p, w_start, hash);
  }

  if (context_ != nullptr) {
    RefinementStats& stats = context_->stats();
    ++stats.refine_calls;
    stats.splitters_processed += head;
    stats.cells_split += cells_split_;
    stats.touched_vertices += touched_vertices_;
    stats.elements_scanned += elements_scanned_;
  }

  // The per-split records already pin down the resulting structure given
  // the (inductively equal) input structure; mix the cell count as a cheap
  // extra integrity check.
  hash = HashMix(hash, p.NumCells());
  return hash;
}

void Refiner::ProcessSplitter(OrderedPartition& p, uint32_t w_start,
                              uint64_t& hash) {
  // Count neighbours in the splitter — the cell now starting at w_start,
  // a subset of the cell that was queued, which is still a valid step (any
  // carved-off sibling is queued or derivable). The count reads the cell
  // before any split below moves it. This is the only edge access in
  // refinement: one virtual call per splitter.
  source_->CountSplitter(p.CellAt(w_start), count_, touched_);
  touched_vertices_ += touched_.size();

  // Affected cells, in invariant (ascending start) order, with the number
  // of touched members of each. Singleton cells cannot split.
  affected_.clear();
  for (const VertexId v : touched_) {
    const uint32_t c_start = p.CellStartOf(v);
    if (p.CellSizeAt(c_start) == 1) continue;
    if (cell_touched_[c_start]++ == 0) affected_.push_back(c_start);
  }
  std::sort(affected_.begin(), affected_.end());

  // Group the touched members by cell: cell_touched_ becomes each cell's
  // write cursor into grouped_, then its end offset.
  uint32_t offset = 0;
  for (const uint32_t c_start : affected_) {
    const uint32_t members = cell_touched_[c_start];
    cell_touched_[c_start] = offset;
    offset += members;
  }
  grouped_.resize(offset);
  for (const VertexId v : touched_) {
    const uint32_t c_start = p.CellStartOf(v);
    if (p.CellSizeAt(c_start) == 1) continue;
    grouped_[cell_touched_[c_start]++] = v;
  }

  // Split in ascending cell order. A split only creates starts inside its
  // own cell, so the other affected cells' starts stay valid.
  uint32_t begin = 0;
  for (const uint32_t c_start : affected_) {
    const uint32_t end = cell_touched_[c_start];
    cell_touched_[c_start] = 0;
    SplitAffected(p, w_start, c_start,
                  std::span<VertexId>(grouped_).subspan(begin, end - begin),
                  hash);
    begin = end;
  }

  for (const VertexId v : touched_) count_[v] = 0;
  touched_.clear();
}

void Refiner::SplitAffected(OrderedPartition& p, uint32_t w_start,
                            uint32_t c_start, std::span<VertexId> tail,
                            uint64_t& hash) {
  const uint32_t c_size = p.CellSizeAt(c_start);
  const uint32_t tail_size = static_cast<uint32_t>(tail.size());
  elements_scanned_ += tail_size;
  if (tail_size == c_size) {
    // Every member touched: the cell splits only on unequal counts.
    const uint32_t first_count = count_[tail[0]];
    bool uniform = true;
    for (const VertexId v : tail) uniform &= count_[v] == first_count;
    if (uniform) return;
  }

  // Sort the touched members by (count, id): the resulting layout depends
  // only on the touched set and its counts, not on the order the source
  // reported them.
  keys_.clear();
  for (const VertexId v : tail) {
    keys_.push_back(uint64_t{count_[v]} << 32 | v);
  }
  std::sort(keys_.begin(), keys_.end());

  // Groups in ascending count order; the zero-count remainder, if any,
  // comes first. Fold (cell, count, size) of each group into the hash.
  const uint32_t head_size = c_size - tail_size;
  if (head_size > 0) {
    hash = HashMix(hash, uint64_t{c_start} << 32);
    hash = HashMix(hash, head_size);
  }
  group_sizes_.clear();
  for (size_t i = 0; i < keys_.size();) {
    const uint32_t count = static_cast<uint32_t>(keys_[i] >> 32);
    size_t j = i;
    for (; j < keys_.size() && keys_[j] >> 32 == count; ++j) {
      tail[j] = static_cast<VertexId>(keys_[j]);
    }
    const uint32_t group_size = static_cast<uint32_t>(j - i);
    group_sizes_.push_back(group_size);
    hash = HashMix(hash, (uint64_t{c_start} << 32) | count);
    hash = HashMix(hash, group_size);
    i = j;
  }
  elements_scanned_ += p.Carve(c_start, tail, group_sizes_);
  ++cells_split_;

  // Hopcroft's rule. A queued cell keeps its entry at c_start, so queue the
  // other parts. Otherwise the partition is stable with respect to the old
  // cell, which makes one part derivable from the rest: queue every part
  // but the first largest in position order.
  uint32_t skip = c_start;
  if (in_queue_[c_start] == 0) {
    uint32_t largest = head_size;
    uint32_t part = c_start + head_size;
    for (const uint32_t group_size : group_sizes_) {
      if (group_size > largest) {
        largest = group_size;
        skip = part;
      }
      part += group_size;
    }
  }
  uint32_t part = c_start;
  if (head_size > 0) {
    if (part != skip) Enqueue(part);
    part += head_size;
  }
  for (const uint32_t group_size : group_sizes_) {
    if (part != skip) Enqueue(part);
    part += group_size;
  }
  hash = HashMix(hash, (uint64_t{w_start} << 32) | c_start);
}

std::vector<std::vector<VertexId>> EquitablePartition(
    const Graph& graph, const RefinementOptions& options) {
  CsrNeighborSource source(graph);
  return EquitablePartition(source, options);
}

std::vector<std::vector<VertexId>> EquitablePartition(
    NeighborSource& source, const RefinementOptions& options) {
  OrderedPartition partition(source.NumVertices(), options.colors);
  Refiner refiner(source, options.context);
  const uint64_t trace = refiner.RefineAll(partition);
  if (options.trace_hash != nullptr) *options.trace_hash = trace;
  return partition.Cells();
}

}  // namespace ksym
