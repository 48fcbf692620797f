// Morton-ordered linearized octree.
//
// This is the paper's central data structure: a cache-friendly container for
// atoms and surface quadrature points. Properties it guarantees:
//
// * Points are stored sorted by Morton code, so EVERY node (not just leaves)
//   owns one contiguous index range [begin, end). The node-based static work
//   division hands rank i the i-th segment of leaves, which is therefore
//   also a contiguous segment of points.
// * Nodes live in one contiguous array, children of a node are adjacent
//   (breadth-first layout), so traversals walk mostly-forward in memory.
// * Space is linear in the number of points and INDEPENDENT of any
//   approximation parameter — the paper's key contrast with nonbonded lists
//   whose size grows cubically with the cutoff.
//
// Each node carries the geometry the Greengard-Rokhlin style near/far test
// needs: the centroid of the points under it and the radius of a ball around
// that centroid enclosing all of them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "support/aabb.hpp"
#include "support/memtrack.hpp"
#include "support/vec3.hpp"

namespace gbpol {

// Per-point passes of an octree build, and of Prepared::build over a tree's
// slots, run on short-lived workers (support/workers.hpp) that claim blocks
// of kBuildBlockPoints points. A pass gets one worker per
// kMinBuildPointsPerWorker points at most, so small point sets build on the
// calling thread alone.
inline constexpr std::size_t kBuildBlockPoints = 2048;
inline constexpr std::size_t kMinBuildPointsPerWorker = 4096;

// Workers for a per-point build pass over `points` points.
int build_workers(std::size_t points);

struct OctreeNode {
  Vec3 centroid;            // geometric center of points under the node
  double radius = 0.0;      // max distance from centroid to any point under it
  std::uint32_t begin = 0;  // point range in Morton order
  std::uint32_t end = 0;
  std::int32_t first_child = -1;  // children are [first_child, first_child+child_count)
  std::uint8_t child_count = 0;
  std::uint8_t depth = 0;

  bool is_leaf() const { return child_count == 0; }
  std::uint32_t count() const { return end - begin; }
};

class Octree {
 public:
  struct BuildParams {
    std::uint32_t leaf_capacity = 32;
    int max_depth = 20;  // Morton codes carry 21 levels; one is kept in reserve
    // Optional fixed Morton quantization domain. When non-empty, codes are
    // quantized against THIS box instead of the point set's bounding box, so
    // two builds over (slightly) different point sets assign comparable codes
    // — the property the incremental trajectory engine (core/incremental.hpp)
    // needs to re-anchor a subset of points without perturbing the Morton
    // cells of everything else. Points outside the domain clamp to its faces
    // (morton::encode_point), which degrades traversal efficiency but never
    // correctness. Empty (the default) keeps the historical behavior.
    Aabb domain;
  };

  Octree() = default;

  // Builds over a point set. The octree keeps a Morton-sorted COPY of the
  // points; `original_index(i)` maps sorted slot i back to the input index.
  //
  // The Morton encoding and sort, the gather of points, and every node's
  // centroid and radius run on claimed blocks (build_workers); the
  // breadth-first node construction and the leaf order stay serial. Each
  // node's sums run over its points in slot order whichever worker computes
  // them, and the sorted order is the unique stable sort by code, so the
  // tree is byte-identical for any worker count.
  static Octree build(std::span<const Vec3> points, const BuildParams& params);
  static Octree build(std::span<const Vec3> points) { return build(points, BuildParams{}); }

  std::size_t num_points() const { return points_.size(); }
  std::span<const Vec3> points() const { return points_; }
  const Vec3& point(std::uint32_t sorted_slot) const { return points_[sorted_slot]; }
  std::uint32_t original_index(std::uint32_t sorted_slot) const { return perm_[sorted_slot]; }
  std::span<const std::uint32_t> permutation() const { return perm_; }

  std::span<const OctreeNode> nodes() const { return nodes_; }
  const OctreeNode& node(std::uint32_t id) const { return nodes_[id]; }
  const OctreeNode& root() const { return nodes_.front(); }
  bool empty() const { return nodes_.empty(); }

  // Leaf node ids in Morton (= point) order.
  std::span<const std::uint32_t> leaves() const { return leaves_; }

  int height() const;

  // Updates point coordinates WITHOUT rebuilding the topology: positions are
  // taken from `new_points` (original input order, same size), node
  // centroids and enclosing radii are recomputed bottom-up. Near/far tests
  // stay CORRECT after a refit (they only read the recomputed geometry);
  // only traversal efficiency degrades as atoms drift from their Morton
  // cells — the octree update-efficiency argument of paper §II, contrasted
  // with nblist rebuilds in bench/ablation_octree_vs_nblist.
  void refit(std::span<const Vec3> new_points);

  // Payload-only position patch for ONE sorted slot: updates the stored
  // point without touching node geometry. The trajectory engine uses this
  // for sub-skin motion — node centroids/radii deliberately stay at their
  // anchor values (the skin margin bounds how stale they can get), exactly
  // like a neighbor-list skin in MD codes. For a full geometry refresh use
  // refit(); for topology changes rebuild.
  void set_point(std::uint32_t sorted_slot, const Vec3& p) { points_[sorted_slot] = p; }

  // Logical footprint of the structure (paper §II space argument).
  MemoryFootprint footprint() const;

 private:
  std::vector<Vec3> points_;          // Morton order
  std::vector<std::uint32_t> perm_;   // sorted slot -> original index
  std::vector<OctreeNode> nodes_;     // BFS layout, root at 0
  std::vector<std::uint32_t> leaves_; // leaf ids, Morton order
};

}  // namespace gbpol
