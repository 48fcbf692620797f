// Interaction-list traversal engine.
//
// The seed re-walked the target octree recursively for EVERY source leaf
// (BornSolver::approx_integrals over q-tree leaves, EpolSolver::recurse_single
// over atom-tree leaves). This module separates TRAVERSAL from EVALUATION, the
// split production FMM-family codes use (DASHMM, Tinker-HP — see PAPERS.md):
// one opening-criterion walk over (target tree x source leaves),
// walk_interactions, resolves every term to
//
//   * a FAR entry (target_node, source_leaf) — a node pair the opening
//     criterion approximates with one aggregated term, or
//   * a NEAR entry (target_leaf, source_leaf) — a leaf pair that needs exact
//     point-by-point kernels,
//
// in exactly the order the recursive engines visit them, except that the
// E_pol self-walk keeps one entry of each mirrored leaf pair at weight 2 (see
// ListBuildParams). The walk hands each entry to a visitor. Its consumers:
//
//   * evaluating visitors (BornSolver::accumulate_walk,
//     EpolSolver::accumulate_energy_walk) run the kernel the moment the walk
//     reaches the entry — every Engine pass (serial, canonical chunks, the
//     kAtomBased Born pass) evaluates its lists once, so it never stores them;
//   * build_interaction_lists materializes the entries as flat FAR/NEAR
//     lists for consumers that stream them more than once or in another
//     order (TrajectoryDriver's cached lists, micro benches, the stage walk
//     that times traversal and kernels apart), consumed by cache-blocked
//     batched kernels (approx_math);
//   * walk_source_leaves only counts, to price chunks and plan halos.
//
// Either way a term's evaluation is the same per-entry code, so walk and list
// evaluation agree to the bit, and both reproduce the recursive result up to
// FP reassociation (tests pin <= 1e-12 relative).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "octree/octree.hpp"
#include "support/arena.hpp"
#include "support/memtrack.hpp"

namespace gbpol {

struct InteractionLists {
  // A far pair: the whole target subtree is far from the source leaf.
  struct Far {
    std::uint32_t target_node = 0;
    std::uint32_t source_leaf = 0;  // node id of a source-tree leaf
  };
  // A near pair: exact kernels over (target leaf points) x (source leaf points).
  // A mirrored entry stands for itself and its twin (target and source
  // swapped), whose row does not carry it: the pair term is symmetric, so
  // the entry is evaluated once at weight 2 (see ListBuildParams). The flag
  // shares the source id's word, so every list (Born's too) keeps 8-byte
  // entries; node ids fit in 31 bits (OctreeNode::first_child is an int32).
  struct Near {
    std::uint32_t target_leaf = 0;
    std::uint32_t source_leaf : 31 = 0;
    std::uint32_t mirrored : 1 = 0;
  };
  static_assert(sizeof(Near) == 8);

  // Arena-backed (support/arena.hpp): the lists are the largest transient hot
  // array — built once, streamed every evaluation — so they live in mmap'd
  // page slabs, first-touch placed on the building worker and accounted by
  // arena_mapped_bytes() rather than the general heap. A build stores both
  // at their exact size in one shared slab.
  ArenaVector<Far> far;
  ArenaVector<Near> near;

  // Exact point pairs the near list will evaluate (for stats / grain
  // tuning); a mirrored entry's pairs count once.
  std::uint64_t near_point_pairs = 0;

  // L2 tile index: ascending entry boundaries partitioning `near` (resp.
  // `far`) so the points (resp. bins) streamed per tile fit a byte budget.
  // When built, size is n_tiles+1 with front()==0 and back()==list size.
  // Tiling only inserts boundaries into the existing traversal order, so
  // evaluation is bit-identical for ANY tile size — see for_each_tile_range.
  std::vector<std::uint32_t> near_tile_start;
  std::vector<std::uint32_t> far_tile_start;
  std::size_t tile_bytes = 0;  // budget the index was built with (0 = unbuilt)

  // Streamed-bytes estimates for one near entry's target/source point and one
  // far entry; the solvers pass kernel-specific values (see build_lists).
  struct TileCost {
    std::size_t near_target_bytes_per_point = 0;
    std::size_t near_source_bytes_per_point = 0;
    std::size_t far_bytes_per_entry = 0;
  };

  // Builds the tile index; budget_bytes == 0 uses default_tile_bytes().
  void build_tiles(const Octree& target, const Octree& source, const TileCost& cost,
                   std::size_t budget_bytes = 0);

  MemoryFootprint footprint() const;
};

// Detected per-core L2 data-cache size in bytes (0 when the OS won't say).
std::size_t detected_l2_bytes();

// Default tile budget: half the detected L2 (the other half absorbs the
// write streams and the tree metadata), clamped to [64 KiB, 1 MiB]; 256 KiB
// when detection fails.
std::size_t default_tile_bytes();

// Calls fn(sub_lo, sub_hi) for each maximal sub-range of [lo, hi) lying
// within a single tile of `starts` (an InteractionLists tile index). With an
// unbuilt index the whole range is one call. Sub-ranges are visited in
// ascending order and partition [lo, hi) exactly, so any per-entry fold over
// them is bit-identical to the untiled loop.
template <typename Fn>
inline void for_each_tile_range(const std::vector<std::uint32_t>& starts,
                                std::size_t lo, std::size_t hi, Fn&& fn) {
  if (lo >= hi) return;
  if (starts.size() < 2) {
    fn(lo, hi);
    return;
  }
  // First boundary strictly past lo ends the tile containing lo.
  auto it = std::upper_bound(starts.begin(), starts.end(), static_cast<std::uint32_t>(lo));
  std::size_t cur = lo;
  while (cur < hi) {
    const std::size_t stop =
        it == starts.end() ? hi : std::min<std::size_t>(hi, *it);
    fn(cur, stop);
    cur = stop;
    ++it;
  }
}

struct ListBuildParams {
  double far_multiplier = 1.0;
  // APPROX-EPOL (Fig. 3) evaluates target LEAVES exactly before applying the
  // far test; APPROX-INTEGRALS (Fig. 2) applies the far test first, so even a
  // target leaf can become a far entry. true mirrors the former.
  bool exact_at_target_leaf = false;
  // Source leaves [lo, hi) (indices into source.leaves()) to traverse —
  // the same segmentation the distributed work divisions use.
  std::uint32_t source_leaf_lo = 0;
  std::uint32_t source_leaf_hi = 0;
  // A walk of one tree against itself with exact_at_target_leaf (the E_pol
  // lists) evaluates each mirrored near pair once: when leaf pair (U, V) is
  // near in both rows, one pure function of the unordered pair keeps one of
  // the two entries, flagged Near::mirrored, and drops the other. Every
  // source-leaf range gets the same per-row entries, so any chunk cut sums
  // each pair exactly once. true keeps every ordered pair instead (the
  // plain walk the mirrored one is tested against); other walk shapes
  // always do.
  bool ordered_pairs = false;
};

namespace walk_detail {

// The far test of the opening criterion: the whole target node t is far from
// the source leaf. The walk and the mirror test below share this one
// expression, so they cannot disagree on a borderline pair.
inline bool far_apart(const OctreeNode& t, const OctreeNode& src, double far_multiplier) {
  const double d2 = distance2(t.centroid, src.centroid);
  const double reach = (t.radius + src.radius) * far_multiplier;
  return d2 > reach * reach;
}

// The source leaf one walk serves. On a walk that evaluates mirrored pairs
// once, it also carries the leaf's strict ancestors, deepest first, for the
// twin test.
struct SourceRow {
  const OctreeNode& leaf;
  std::uint32_t id;
  bool mirrors = false;
  std::uint8_t n_ancestors = 0;
  std::array<std::uint32_t, 32> ancestors{};

  SourceRow(const Octree& tree, std::uint32_t leaf_id, bool mirror_pairs);
};

// Weight of the near entry (target leaf u, source leaf row.id): 1 = evaluate
// it, 2 = evaluate it once for itself and its twin (target row.id, source
// u), 0 = drop it because the twin's row carries the pair (see
// interaction_lists.cpp). Diagonal (u, u) entries keep weight 1.
int mirrored_weight(const Octree& tree, const SourceRow& row, std::uint32_t u,
                    const OctreeNode& un, double far_multiplier);
inline int near_weight(const Octree& tree, const SourceRow& row, std::uint32_t u,
                       const OctreeNode& un, double far_multiplier) {
  if (!row.mirrors || u == row.id) return 1;
  return mirrored_weight(tree, row, u, un, far_multiplier);
}

// Whether a walk evaluates each mirrored near pair once: only the atoms-tree
// self-walk with target leaves exact (APPROX-EPOL), where the pair term is
// symmetric and every leaf is both a source and a target.
inline bool mirrors_pairs(const Octree& target, const Octree& source,
                          const ListBuildParams& params) {
  return &target == &source && params.exact_at_target_leaf && !params.ordered_pairs;
}

// Depth-first over the target tree against one fixed source leaf, mirroring
// the recursive engines' traversal. Each target node resolves to exactly one
// of visit.far — the whole subtree is approximated against the source leaf —
// or visit.near — exact point kernels, once for a mirrored pair — or nothing,
// when a mirrored pair's twin row carries it. Child visit order matches
// OctreeNode's child layout, so visits come out in the exact order the
// recursion evaluates terms.
template <typename Visit>
void walk_target(const Octree& target, const SourceRow& row,
                 std::uint32_t target_node_id, const ListBuildParams& params,
                 Visit& visit) {
  const OctreeNode& t = target.node(target_node_id);
  if (params.exact_at_target_leaf && t.is_leaf()) {
    const int weight = near_weight(target, row, target_node_id, t, params.far_multiplier);
    if (weight != 0) visit.near(target_node_id, row.id, weight == 2);
    return;
  }
  if (far_apart(t, row.leaf, params.far_multiplier)) {
    visit.far(target_node_id, row.id);
    return;
  }
  if (t.is_leaf()) {
    visit.near(target_node_id, row.id, false);
    return;
  }
  for (std::uint8_t c = 0; c < t.child_count; ++c)
    walk_target(target, row, static_cast<std::uint32_t>(t.first_child) + c, params,
                visit);
}

}  // namespace walk_detail

// THE opening-criterion walk every list consumer shares. For each source leaf
// of [params.source_leaf_lo, params.source_leaf_hi) in index order it walks
// the target tree and calls
//
//   visit.far(target_node, source_leaf)              // one aggregated term
//   visit.near(target_leaf, source_leaf, mirrored)   // exact point kernels
//
// (source ids are node ids) in exactly the order build_interaction_lists
// emits its entries, then visit.end_source_leaf(index) when the visitor has
// one. Far terms write target-node slots and near terms target-point slots,
// so an evaluating visitor that folds each entry as it arrives reproduces
// list evaluation's per-slot fold order exactly.
template <typename Visit>
void walk_interactions(const Octree& target, const Octree& source,
                       const ListBuildParams& params, Visit& visit) {
  if (target.empty() || source.empty()) return;
  const auto leaves = source.leaves();
  const bool mirrors = walk_detail::mirrors_pairs(target, source, params);
  for (std::uint32_t i = params.source_leaf_lo; i < params.source_leaf_hi; ++i) {
    const walk_detail::SourceRow row(source, leaves[i], mirrors);
    walk_detail::walk_target(target, row, 0, params, visit);
    if constexpr (requires { visit.end_source_leaf(i); }) visit.end_source_leaf(i);
  }
}

// The materializing visitor: stores the walk's entries at their exact size
// (the solvers' build_lists then add the tile index).
InteractionLists build_interaction_lists(const Octree& target, const Octree& source,
                                         const ListBuildParams& params);

// What one traversal of the opening criterion yields per source leaf,
// without materializing the lists: enough to price work and plan halos.
// Entry i describes source leaf params.source_leaf_lo + i.
struct LeafWalk {
  // Work the leaf's list entries evaluate: target points x source points per
  // near entry (a mirrored entry counts once) plus source points per far
  // entry.
  std::vector<std::uint64_t> interactions;
  // CSR of near partners: near_targets[near_start[i], near_start[i+1]) are
  // the target-leaf ordinals (indices into target.leaves()) of leaf i's near
  // entries, in the order build_interaction_lists emits them.
  std::vector<std::uint32_t> near_start;
  std::vector<std::uint32_t> near_targets;

  std::span<const std::uint32_t> near_row(std::uint32_t i) const {
    return std::span<const std::uint32_t>(near_targets)
        .subspan(near_start[i], near_start[i + 1] - near_start[i]);
  }
};

// A counting visitor of walk_interactions (one shared recursion, so the
// counts and the lists cannot drift): no Far/Near entries, no tiles.
LeafWalk walk_source_leaves(const Octree& target, const Octree& source,
                            const ListBuildParams& params);

}  // namespace gbpol
