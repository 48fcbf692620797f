#include "octree/octree.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>

#include "support/morton.hpp"
#include "support/workers.hpp"

namespace gbpol {
namespace {

// A point's Morton code with its input index, ordered by code alone.
struct Keyed {
  std::uint64_t code;
  std::uint32_t index;
  bool operator<(const Keyed& o) const { return code < o.code; }
};

// Encodes `points` into keys in stable code order: `count` workers each
// encode and std::stable_sort one run, then runs std::merge pairwise, level
// by level. Both keep equal codes in input order, and a stable sort's result
// is unique, so the keys come out in morton::sort_permutation's order for
// any count. The key arrays are left uninitialized so their pages are first
// touched by the workers.
std::unique_ptr<Keyed[]> sorted_keys(std::span<const Vec3> points, const Aabb& box,
                                     int count) {
  const std::size_t n = points.size();
  std::vector<std::size_t> bounds;
  for (int r = 0; r <= count; ++r) bounds.push_back(n * static_cast<std::size_t>(r) / count);
  auto keys = std::make_unique_for_overwrite<Keyed[]>(n);
  workers::for_blocks(count, static_cast<std::size_t>(count), [&](std::size_t r) {
    for (std::size_t i = bounds[r]; i < bounds[r + 1]; ++i)
      keys[i] = Keyed{morton::encode_point(points[i], box), static_cast<std::uint32_t>(i)};
    std::stable_sort(&keys[bounds[r]], &keys[bounds[r + 1]]);
  });
  if (bounds.size() <= 2) return keys;
  auto merged = std::make_unique_for_overwrite<Keyed[]>(n);
  while (bounds.size() > 2) {
    const std::size_t runs = bounds.size() - 1;
    workers::for_blocks(count, (runs + 1) / 2, [&](std::size_t pair) {
      const std::size_t lo = bounds[2 * pair];
      const std::size_t mid = bounds[std::min(2 * pair + 1, runs)];
      const std::size_t hi = bounds[std::min(2 * pair + 2, runs)];
      std::merge(&keys[lo], &keys[mid], &keys[mid], &keys[hi], &merged[lo]);
    });
    keys.swap(merged);
    std::vector<std::size_t> next;
    for (std::size_t i = 0; i < bounds.size(); i += 2) next.push_back(bounds[i]);
    if (next.back() != n) next.push_back(n);
    bounds = std::move(next);
  }
  return keys;
}

// Centroid of the points under the node, then the enclosing radius about it.
void fit_node(OctreeNode& node, std::span<const Vec3> points) {
  Vec3 c;
  for (std::uint32_t i = node.begin; i < node.end; ++i) c += points[i];
  node.centroid = c / static_cast<double>(node.count());
  double r2 = 0.0;
  for (std::uint32_t i = node.begin; i < node.end; ++i)
    r2 = std::max(r2, distance2(points[i], node.centroid));
  node.radius = std::sqrt(r2);
}

// Consecutive node-id ranges whose point counts sum to about
// kBuildBlockPoints each, so the root (every point) is one block and the
// deep levels share blocks: fit_node's cost is its node's point count.
std::vector<std::uint32_t> node_block_bounds(std::span<const OctreeNode> nodes) {
  std::vector<std::uint32_t> bounds{0};
  std::size_t acc = 0;
  for (std::uint32_t id = 0; id < nodes.size(); ++id) {
    acc += nodes[id].count();
    if (acc >= kBuildBlockPoints) {
      bounds.push_back(id + 1);
      acc = 0;
    }
  }
  if (bounds.back() != nodes.size()) bounds.push_back(static_cast<std::uint32_t>(nodes.size()));
  return bounds;
}

// bounding_box(points) on claimed blocks: each block's box, then the
// blocks' boxes merged in block order. min/max keep the first-seen of equal
// values either way, so the box is bit-identical to the serial scan.
Aabb fitted_box(std::span<const Vec3> points, int count) {
  std::vector<Aabb> boxes((points.size() + kBuildBlockPoints - 1) / kBuildBlockPoints);
  workers::for_ranges(count, points.size(), kBuildBlockPoints,
                      [&](std::size_t lo, std::size_t hi) {
                        boxes[lo / kBuildBlockPoints] = bounding_box(points.subspan(lo, hi - lo));
                      });
  Aabb box;
  for (const Aabb& b : boxes) box.expand(b);
  return box;
}

}  // namespace

int build_workers(std::size_t points) {
  return workers::count_for((points + kBuildBlockPoints - 1) / kBuildBlockPoints, points,
                            kMinBuildPointsPerWorker);
}

Octree Octree::build(std::span<const Vec3> points, const BuildParams& params) {
  Octree tree;
  if (points.empty()) return tree;
  const std::size_t n = points.size();
  const int count = build_workers(n);

  // Morton-sort the points once; everything else works on contiguous ranges.
  // A caller-pinned domain (BuildParams::domain) replaces the fitted box so
  // codes stay comparable across rebuilds over perturbed point sets.
  const Aabb box = params.domain.empty() ? fitted_box(points, count) : params.domain;
  const std::unique_ptr<Keyed[]> keys = sorted_keys(points, box, count);

  tree.perm_.resize(n);
  tree.points_.resize(n);
  workers::for_ranges(count, n, kBuildBlockPoints, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      tree.perm_[i] = keys[i].index;
      tree.points_[i] = points[keys[i].index];
    }
  });

  const std::uint32_t leaf_cap = std::max<std::uint32_t>(1, params.leaf_capacity);
  const int max_depth = std::clamp(params.max_depth, 0, 20);

  // Breadth-first construction: children of each split node are appended as
  // one contiguous block, giving the cache-friendly linear layout.
  OctreeNode root;
  root.begin = 0;
  root.end = static_cast<std::uint32_t>(n);
  root.depth = 0;
  tree.nodes_.push_back(root);

  for (std::uint32_t id = 0; id < tree.nodes_.size(); ++id) {
    // Take copies of the fields we need: push_back below may reallocate.
    const std::uint32_t begin = tree.nodes_[id].begin;
    const std::uint32_t end = tree.nodes_[id].end;
    const int depth = tree.nodes_[id].depth;
    if (end - begin <= leaf_cap || depth >= max_depth) continue;

    const int shift = 3 * (20 - depth);
    // Partition the range by the 3-bit Morton digit of this level. The range
    // is sorted and its codes share every higher digit, so the digits are
    // non-decreasing and each octant is a contiguous sub-range, found by
    // binary search.
    std::uint32_t child_begin = begin;
    std::int32_t first_child = -1;
    std::uint8_t child_count = 0;
    while (child_begin < end) {
      const std::uint64_t digit = (keys[child_begin].code >> shift) & 7u;
      const Keyed* const past = std::partition_point(
          &keys[child_begin], &keys[0] + end,
          [&](const Keyed& k) { return ((k.code >> shift) & 7u) == digit; });
      const auto child_end = static_cast<std::uint32_t>(past - &keys[0]);
      OctreeNode child;
      child.begin = child_begin;
      child.end = child_end;
      child.depth = static_cast<std::uint8_t>(depth + 1);
      if (first_child < 0) first_child = static_cast<std::int32_t>(tree.nodes_.size());
      tree.nodes_.push_back(child);
      ++child_count;
      child_begin = child_end;
    }
    // A single child octant means all codes share this digit; splitting
    // further would recurse without progress only if ALL remaining bits are
    // equal — the depth bound still terminates that case, so keep the child.
    tree.nodes_[id].first_child = first_child;
    tree.nodes_[id].child_count = child_count;
  }

  // Geometry aggregates, node by node on claimed blocks of nodes.
  const std::vector<std::uint32_t> bounds = node_block_bounds(tree.nodes_);
  workers::for_blocks(count, bounds.size() - 1, [&](std::size_t b) {
    for (std::uint32_t id = bounds[b]; id < bounds[b + 1]; ++id)
      fit_node(tree.nodes_[id], tree.points_);
  });

  // Leaves in Morton order (ascending range start): children split their
  // parent's range in child order, so a depth-first walk that visits
  // children in order reaches the leaves in that order.
  std::vector<std::uint32_t> stack{0};
  while (!stack.empty()) {
    const OctreeNode& node = tree.nodes_[stack.back()];
    if (node.is_leaf()) tree.leaves_.push_back(stack.back());
    stack.pop_back();
    for (int c = node.child_count; c-- > 0;)
      stack.push_back(static_cast<std::uint32_t>(node.first_child + c));
  }
  return tree;
}

void Octree::refit(std::span<const Vec3> new_points) {
  assert(new_points.size() == points_.size());
  for (std::size_t slot = 0; slot < points_.size(); ++slot)
    points_[slot] = new_points[perm_[slot]];
  for (OctreeNode& node : nodes_) fit_node(node, points_);
}

int Octree::height() const {
  int h = 0;
  for (const OctreeNode& n : nodes_) h = std::max(h, static_cast<int>(n.depth));
  return h;
}

MemoryFootprint Octree::footprint() const {
  MemoryFootprint fp;
  fp.add_array<Vec3>(points_.size());
  fp.add_array<std::uint32_t>(perm_.size());
  fp.add_array<OctreeNode>(nodes_.size());
  fp.add_array<std::uint32_t>(leaves_.size());
  return fp;
}

}  // namespace gbpol
