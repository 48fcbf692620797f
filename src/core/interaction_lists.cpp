#include "core/interaction_lists.hpp"

#include <algorithm>
#include <array>

#include <unistd.h>

namespace gbpol {
namespace {

// The far test of the opening criterion: the whole target node t is far from
// the source leaf. The walk and the mirror test below share this one
// expression, so they cannot disagree on a borderline pair.
inline bool far_apart(const OctreeNode& t, const OctreeNode& src, double far_multiplier) {
  const double d2 = distance2(t.centroid, src.centroid);
  const double reach = (t.radius + src.radius) * far_multiplier;
  return d2 > reach * reach;
}

// The source leaf one walk serves. On a walk that evaluates mirrored pairs
// once (mirrors_pairs), it also carries the leaf's strict ancestors, deepest
// first, for the twin test.
struct SourceRow {
  const OctreeNode& leaf;
  std::uint32_t id;
  bool mirrors = false;
  std::uint8_t n_ancestors = 0;
  std::array<std::uint32_t, 32> ancestors{};

  SourceRow(const Octree& tree, std::uint32_t leaf_id, bool mirror_pairs)
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
};

// Weight of the near entry (target leaf u, source leaf row.id): 1 = evaluate
// it, 2 = evaluate it once for itself and its twin (target row.id, source
// u), 0 = drop it because the twin's row carries the pair. The twin exists
// iff the walk from source u reaches target leaf row.id, i.e. no strict
// ancestor of row.id is far from u; ancestors are tested deepest first,
// where a missing twin usually shows. Of a mirrored pair, the row kept is a
// pure function of the unordered pair that splits each row's mirrored work
// about evenly: an odd id sum keeps the lower id's row, an even one the
// higher's. Diagonal (u, u) entries keep weight 1.
int near_weight(const Octree& tree, const SourceRow& row, std::uint32_t u,
                const OctreeNode& un, double far_multiplier) {
  if (!row.mirrors || u == row.id) return 1;
  for (std::uint8_t k = 0; k < row.n_ancestors; ++k)
    if (far_apart(tree.node(row.ancestors[k]), un, far_multiplier)) return 1;
  const bool keep_here = ((u + row.id) & 1u) != 0 ? row.id < u : row.id > u;
  return keep_here ? 2 : 0;
}

// Whether a walk evaluates each mirrored near pair once: only the atoms-tree
// self-walk with target leaves exact (APPROX-EPOL), where the pair term is
// symmetric and every leaf is both a source and a target.
bool mirrors_pairs(const Octree& target, const Octree& source,
                   const ListBuildParams& params) {
  return &target == &source && params.exact_at_target_leaf && !params.ordered_pairs;
}

// The opening-criterion recursion every list consumer shares: depth-first
// over the target tree against one fixed source leaf, mirroring the
// recursive engines' traversal. Each target node resolves to exactly one of
// visit.far(node_id) — the whole subtree is approximated against the source
// leaf — or visit.near(leaf_id, leaf, mirrored) — exact point kernels, once
// for a mirrored pair — or nothing, when a mirrored pair's twin row carries
// it. Child visit order matches OctreeNode's child layout, so visits come
// out in the exact order the recursion evaluates terms.
template <typename Visit>
void walk_target(const Octree& target, const SourceRow& row,
                 std::uint32_t target_node_id, const ListBuildParams& params,
                 Visit& visit) {
  const OctreeNode& t = target.node(target_node_id);
  if (params.exact_at_target_leaf && t.is_leaf()) {
    const int weight = near_weight(target, row, target_node_id, t, params.far_multiplier);
    if (weight != 0) visit.near(target_node_id, t, weight == 2);
    return;
  }
  if (far_apart(t, row.leaf, params.far_multiplier)) {
    visit.far(target_node_id);
    return;
  }
  if (t.is_leaf()) {
    visit.near(target_node_id, t, false);
    return;
  }
  for (std::uint8_t c = 0; c < t.child_count; ++c)
    walk_target(target, row, static_cast<std::uint32_t>(t.first_child) + c, params,
                visit);
}

// Materializes one source leaf's visits as Far/Near entries.
struct ListVisit {
  const OctreeNode& src;
  std::uint32_t source_leaf_id;
  InteractionLists& out;

  void far(std::uint32_t target_node) { out.far.push_back({target_node, source_leaf_id}); }
  void near(std::uint32_t target_leaf, const OctreeNode& t, bool mirrored) {
    out.near.push_back({target_leaf, source_leaf_id, mirrored});
    out.near_point_pairs += static_cast<std::uint64_t>(t.count()) * src.count();
  }
};

// Counts one source leaf's visits and records its near targets as leaf
// ordinals; no entries are materialized. A mirrored entry is one
// evaluation, so it counts once.
struct CountVisit {
  const OctreeNode& src;
  std::span<const std::uint32_t> leaf_ordinal;  // target node id -> leaf ordinal
  std::uint64_t& interactions;
  std::vector<std::uint32_t>& near_targets;

  void far(std::uint32_t) { interactions += src.count(); }
  void near(std::uint32_t target_leaf, const OctreeNode& t, bool) {
    interactions += static_cast<std::uint64_t>(t.count()) * src.count();
    near_targets.push_back(leaf_ordinal[target_leaf]);
  }
};

void build_range(const Octree& target, const Octree& source,
                 const ListBuildParams& params, std::uint32_t leaf_lo,
                 std::uint32_t leaf_hi, InteractionLists& out) {
  const auto leaves = source.leaves();
  const bool mirrors = mirrors_pairs(target, source, params);
  for (std::uint32_t i = leaf_lo; i < leaf_hi; ++i) {
    const SourceRow row(source, leaves[i], mirrors);
    ListVisit visit{row.leaf, leaves[i], out};
    walk_target(target, row, 0, params, visit);
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
  const bool mirrors = mirrors_pairs(target, source, params);
  for (std::uint32_t i = lo; i < hi; ++i) {
    const SourceRow row(source, leaves[i], mirrors);
    CountVisit visit{row.leaf, leaf_ordinal, walk.interactions[i - lo],
                     walk.near_targets};
    walk_target(target, row, 0, params, visit);
    walk.near_start[i - lo + 1] = static_cast<std::uint32_t>(walk.near_targets.size());
  }
  return walk;
}

}  // namespace gbpol
