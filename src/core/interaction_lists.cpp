#include "core/interaction_lists.hpp"

#include <algorithm>

#include <unistd.h>

namespace gbpol {
namespace {

// The opening-criterion recursion every list consumer shares: depth-first
// over the target tree against one fixed source leaf, mirroring the
// recursive engines' traversal. Each target node resolves to exactly one of
// visit.far(node_id) — the whole subtree is approximated against the source
// leaf — or visit.near(leaf_id, leaf) — exact point kernels. Child visit
// order matches OctreeNode's child layout, so visits come out in the exact
// order the recursion evaluates terms.
template <typename Visit>
void walk_target(const Octree& target, const OctreeNode& src,
                 std::uint32_t target_node_id, const ListBuildParams& params,
                 Visit& visit) {
  const OctreeNode& t = target.node(target_node_id);
  if (params.exact_at_target_leaf && t.is_leaf()) {
    visit.near(target_node_id, t);
    return;
  }
  const double d2 = distance2(t.centroid, src.centroid);
  const double reach = (t.radius + src.radius) * params.far_multiplier;
  if (d2 > reach * reach) {
    visit.far(target_node_id);
    return;
  }
  if (t.is_leaf()) {
    visit.near(target_node_id, t);
    return;
  }
  for (std::uint8_t c = 0; c < t.child_count; ++c)
    walk_target(target, src, static_cast<std::uint32_t>(t.first_child) + c,
                params, visit);
}

// Materializes one source leaf's visits as Far/Near entries.
struct ListVisit {
  const OctreeNode& src;
  std::uint32_t source_leaf_id;
  InteractionLists& out;

  void far(std::uint32_t target_node) { out.far.push_back({target_node, source_leaf_id}); }
  void near(std::uint32_t target_leaf, const OctreeNode& t) {
    out.near.push_back({target_leaf, source_leaf_id});
    out.near_point_pairs += static_cast<std::uint64_t>(t.count()) * src.count();
  }
};

// Counts one source leaf's visits and records its near targets as leaf
// ordinals; no entries are materialized.
struct CountVisit {
  const OctreeNode& src;
  std::span<const std::uint32_t> leaf_ordinal;  // target node id -> leaf ordinal
  std::uint64_t& interactions;
  std::vector<std::uint32_t>& near_targets;

  void far(std::uint32_t) { interactions += src.count(); }
  void near(std::uint32_t target_leaf, const OctreeNode& t) {
    interactions += static_cast<std::uint64_t>(t.count()) * src.count();
    near_targets.push_back(leaf_ordinal[target_leaf]);
  }
};

void build_range(const Octree& target, const Octree& source,
                 const ListBuildParams& params, std::uint32_t leaf_lo,
                 std::uint32_t leaf_hi, InteractionLists& out) {
  const auto leaves = source.leaves();
  for (std::uint32_t i = leaf_lo; i < leaf_hi; ++i) {
    ListVisit visit{source.node(leaves[i]), leaves[i], out};
    walk_target(target, visit.src, 0, params, visit);
  }
}

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
  if (target.empty() || source.empty()) return lists;
  build_range(target, source, params, params.source_leaf_lo, params.source_leaf_hi,
              lists);
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

  const auto leaves = source.leaves();
  for (std::uint32_t i = lo; i < hi; ++i) {
    CountVisit visit{source.node(leaves[i]), leaf_ordinal, walk.interactions[i - lo],
                     walk.near_targets};
    walk_target(target, visit.src, 0, params, visit);
    walk.near_start[i - lo + 1] = static_cast<std::uint32_t>(walk.near_targets.size());
  }
  return walk;
}

}  // namespace gbpol
