#include "core/interaction_lists.hpp"

#include <algorithm>
#include <array>
#include <memory>
#include <new>
#include <span>

#include <unistd.h>

namespace gbpol {
namespace walk_detail {

SourceRow::SourceRow(const Octree& tree, std::uint32_t leaf_id, bool mirror_pairs)
    : leaf(tree.node(leaf_id)), id(leaf_id), mirrors(mirror_pairs) {
  if (!mirrors) return;
  // Descend from the root along the child whose point range holds the
  // leaf's first point: children partition their parent's range, so this
  // is the leaf's ancestor chain.
  std::uint32_t node = 0;
  while (node != leaf_id) {
    ancestors[n_ancestors++] = node;
    std::uint32_t c = static_cast<std::uint32_t>(tree.node(node).first_child);
    while (tree.node(c).end <= leaf.begin) ++c;
    node = c;
  }
  std::reverse(ancestors.begin(), ancestors.begin() + n_ancestors);
}

// The off-diagonal case of near_weight on a mirroring walk. The twin exists
// iff the walk from source u reaches target leaf row.id, i.e. no strict
// ancestor of row.id is far from u; ancestors are tested deepest first,
// where a missing twin usually shows. Of a mirrored pair, the row kept is a
// pure function of the unordered pair that splits each row's mirrored work
// about evenly: an odd id sum keeps the lower id's row, an even one the
// higher's.
int mirrored_weight(const Octree& tree, const SourceRow& row, std::uint32_t u,
                    const OctreeNode& un, double far_multiplier) {
  for (std::uint8_t k = 0; k < row.n_ancestors; ++k)
    if (far_apart(tree.node(row.ancestors[k]), un, far_multiplier)) return 1;
  const bool keep_here = ((u + row.id) & 1u) != 0 ? row.id < u : row.id > u;
  return keep_here ? 2 : 0;
}

}  // namespace walk_detail

namespace {

// Collects a build's entries in whole-slab blocks of a scratch arena, so a
// growing list never re-copies itself or leaves abandoned buffers behind:
// each entry is written once here and once into its exact-size home, and the
// scratch slabs are unmapped when the build returns.
template <typename T>
class Staging {
 public:
  explicit Staging(PageArena& scratch) : scratch_(scratch) {}

  void push_back(const T& v) {
    if (fill_ == kBlock) {
      blocks_.push_back(
          static_cast<T*>(scratch_.allocate(kBlock * sizeof(T), alignof(T))));
      fill_ = 0;
    }
    new (blocks_.back() + fill_++) T(v);
  }
  std::size_t size() const {
    return blocks_.empty() ? 0 : (blocks_.size() - 1) * kBlock + fill_;
  }
  void copy_into(ArenaVector<T>& out) const {
    out.reserve(size());
    for (std::size_t b = 0; b < blocks_.size(); ++b) {
      const std::size_t n = b + 1 < blocks_.size() ? kBlock : fill_;
      out.insert(out.end(), blocks_[b], blocks_[b] + n);
    }
  }

 private:
  static constexpr std::size_t kBlock = PageArena::kDefaultSlabBytes / sizeof(T);
  PageArena& scratch_;
  std::vector<T*> blocks_;
  std::size_t fill_ = kBlock;  // the (absent) current block is full
};

// Materializes the walk's visits as Far/Near entries.
struct ListVisit {
  const Octree& target;
  const Octree& source;
  PageArena scratch;
  Staging<InteractionLists::Far> far_entries{scratch};
  Staging<InteractionLists::Near> near_entries{scratch};
  std::uint64_t near_point_pairs = 0;

  ListVisit(const Octree& t, const Octree& s) : target(t), source(s) {}

  void far(std::uint32_t target_node, std::uint32_t source_leaf) {
    far_entries.push_back({target_node, source_leaf});
  }
  void near(std::uint32_t target_leaf, std::uint32_t source_leaf, bool mirrored) {
    near_entries.push_back({target_leaf, source_leaf, mirrored});
    near_point_pairs += static_cast<std::uint64_t>(target.node(target_leaf).count()) *
                        source.node(source_leaf).count();
  }

  // Both lists at their exact size, in one slab of one shared arena (the
  // second list starts at most one cache line past the first's end).
  void store(InteractionLists& out) const {
    using Far = InteractionLists::Far;
    using Near = InteractionLists::Near;
    const std::size_t far_bytes = far_entries.size() * sizeof(Far);
    const std::size_t near_bytes = near_entries.size() * sizeof(Near);
    if (far_bytes + near_bytes == 0) return;
    const auto arena = std::make_shared<PageArena>(far_bytes + 64 + near_bytes);
    out.far = ArenaVector<Far>(ArenaAllocator<Far>(arena));
    out.near = ArenaVector<Near>(ArenaAllocator<Near>(arena));
    far_entries.copy_into(out.far);
    near_entries.copy_into(out.near);
    out.near_point_pairs = near_point_pairs;
  }
};

// Counts each source leaf's visits and records its near targets as leaf
// ordinals; no entries are materialized. A mirrored entry is one
// evaluation, so it counts once.
struct CountVisit {
  const Octree& target;
  const Octree& source;
  std::span<const std::uint32_t> leaf_ordinal;  // target node id -> leaf ordinal
  LeafWalk& walk;
  std::uint32_t lo;
  std::uint64_t row_interactions = 0;

  void far(std::uint32_t, std::uint32_t source_leaf) {
    row_interactions += source.node(source_leaf).count();
  }
  void near(std::uint32_t target_leaf, std::uint32_t source_leaf, bool) {
    row_interactions += static_cast<std::uint64_t>(target.node(target_leaf).count()) *
                        source.node(source_leaf).count();
    walk.near_targets.push_back(leaf_ordinal[target_leaf]);
  }
  void end_source_leaf(std::uint32_t i) {
    walk.interactions[i - lo] = row_interactions;
    walk.near_start[i - lo + 1] = static_cast<std::uint32_t>(walk.near_targets.size());
    row_interactions = 0;
  }
};

}  // namespace

MemoryFootprint InteractionLists::footprint() const {
  MemoryFootprint fp;
  fp.add_array<Far>(far.size());
  fp.add_array<Near>(near.size());
  fp.add_array<std::uint32_t>(near_tile_start.size() + far_tile_start.size());
  return fp;
}

std::size_t detected_l2_bytes() {
#if defined(_SC_LEVEL2_CACHE_SIZE)
  const long v = sysconf(_SC_LEVEL2_CACHE_SIZE);
  return v > 0 ? static_cast<std::size_t>(v) : 0;
#else
  return 0;
#endif
}

std::size_t default_tile_bytes() {
  const std::size_t l2 = detected_l2_bytes();
  if (l2 == 0) return std::size_t(256) << 10;
  return std::clamp<std::size_t>(l2 / 2, std::size_t(64) << 10, std::size_t(1) << 20);
}

void InteractionLists::build_tiles(const Octree& target, const Octree& source,
                                   const TileCost& cost, std::size_t budget_bytes) {
  tile_bytes = budget_bytes != 0 ? budget_bytes : default_tile_bytes();
  near_tile_start.clear();
  far_tile_start.clear();
  if (!near.empty()) {
    // Greedy accumulation: close the tile when adding the next entry's point
    // ranges would overflow the budget. An oversized single entry gets its
    // own tile (progress is guaranteed).
    near_tile_start.push_back(0);
    std::size_t acc = 0;
    for (std::uint32_t i = 0; i < near.size(); ++i) {
      const std::size_t bytes =
          static_cast<std::size_t>(target.node(near[i].target_leaf).count()) *
              cost.near_target_bytes_per_point +
          static_cast<std::size_t>(source.node(near[i].source_leaf).count()) *
              cost.near_source_bytes_per_point;
      if (acc > 0 && acc + bytes > tile_bytes) {
        near_tile_start.push_back(i);
        acc = 0;
      }
      acc += bytes;
    }
    near_tile_start.push_back(static_cast<std::uint32_t>(near.size()));
  }
  if (!far.empty()) {
    // Far entries stream a fixed aggregate payload each, so the tile is a
    // fixed entry count.
    const std::size_t per = std::max<std::size_t>(1, cost.far_bytes_per_entry);
    const std::uint32_t entries = static_cast<std::uint32_t>(
        std::max<std::size_t>(1, tile_bytes / per));
    for (std::uint32_t i = 0; i < far.size(); i += entries) far_tile_start.push_back(i);
    far_tile_start.push_back(static_cast<std::uint32_t>(far.size()));
  }
}

InteractionLists build_interaction_lists(const Octree& target, const Octree& source,
                                         const ListBuildParams& params) {
  InteractionLists lists;
  ListVisit visit(target, source);
  walk_interactions(target, source, params, visit);
  visit.store(lists);
  return lists;
}

LeafWalk walk_source_leaves(const Octree& target, const Octree& source,
                            const ListBuildParams& params) {
  LeafWalk walk;
  const std::uint32_t lo = params.source_leaf_lo;
  const std::uint32_t hi = std::max(lo, params.source_leaf_hi);
  walk.interactions.assign(hi - lo, 0);
  walk.near_start.assign(hi - lo + 1, 0);
  if (target.empty() || source.empty()) return walk;

  const auto tleaves = target.leaves();
  std::vector<std::uint32_t> leaf_ordinal(target.nodes().size(), 0);
  for (std::uint32_t i = 0; i < tleaves.size(); ++i) leaf_ordinal[tleaves[i]] = i;

  CountVisit visit{target, source, leaf_ordinal, walk, lo};
  walk_interactions(target, source, params, visit);
  return walk;
}

}  // namespace gbpol
