// Octree structural invariants: Morton layout, range partitioning,
// enclosing-ball geometry, leaf ordering — everything the solvers and the
// node-based work division assume.
#include "octree/octree.hpp"

#include <optional>
#include <set>

#include <gtest/gtest.h>

#include "molecule/generate.hpp"
#include "support/morton.hpp"
#include "support/rng.hpp"
#include "test_helpers.hpp"

namespace gbpol {
namespace {

std::vector<Vec3> random_points(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec3> pts(n);
  for (Vec3& p : pts)
    p = Vec3{rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(-10, 10)};
  return pts;
}

TEST(OctreeTest, EmptyInput) {
  const Octree tree = Octree::build({});
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.num_points(), 0u);
}

TEST(OctreeTest, SinglePoint) {
  const Vec3 p{1, 2, 3};
  const Octree tree = Octree::build({&p, 1});
  ASSERT_EQ(tree.nodes().size(), 1u);
  EXPECT_TRUE(tree.root().is_leaf());
  EXPECT_EQ(tree.root().count(), 1u);
  EXPECT_EQ(tree.root().centroid, p);
  EXPECT_EQ(tree.root().radius, 0.0);
}

TEST(OctreeTest, PermutationIsABijection) {
  const auto pts = random_points(500, 1);
  const Octree tree = Octree::build(pts, {.leaf_capacity = 8, .max_depth = 20, .domain = {}});
  std::set<std::uint32_t> seen;
  for (std::uint32_t slot = 0; slot < tree.num_points(); ++slot) {
    const std::uint32_t orig = tree.original_index(slot);
    EXPECT_TRUE(seen.insert(orig).second);
    EXPECT_EQ(tree.point(slot), pts[orig]);
  }
  EXPECT_EQ(seen.size(), pts.size());
}

TEST(OctreeTest, ChildrenPartitionParentRange) {
  const auto pts = random_points(2000, 2);
  const Octree tree = Octree::build(pts, {.leaf_capacity = 16, .max_depth = 20, .domain = {}});
  for (const OctreeNode& node : tree.nodes()) {
    if (node.is_leaf()) continue;
    std::uint32_t cursor = node.begin;
    for (std::uint8_t c = 0; c < node.child_count; ++c) {
      const OctreeNode& child = tree.node(static_cast<std::uint32_t>(node.first_child) + c);
      EXPECT_EQ(child.begin, cursor);
      EXPECT_EQ(child.depth, node.depth + 1);
      EXPECT_GT(child.count(), 0u);
      cursor = child.end;
    }
    EXPECT_EQ(cursor, node.end);
  }
}

TEST(OctreeTest, EnclosingBallContainsAllPoints) {
  const auto pts = random_points(1000, 3);
  const Octree tree = Octree::build(pts, {.leaf_capacity = 10, .max_depth = 20, .domain = {}});
  for (const OctreeNode& node : tree.nodes()) {
    for (std::uint32_t i = node.begin; i < node.end; ++i) {
      EXPECT_LE(distance(tree.point(i), node.centroid), node.radius + 1e-9);
    }
  }
}

TEST(OctreeTest, CentroidIsMeanOfPoints) {
  const auto pts = random_points(300, 4);
  const Octree tree = Octree::build(pts, {.leaf_capacity = 4, .max_depth = 20, .domain = {}});
  const OctreeNode& root = tree.root();
  Vec3 mean;
  for (const Vec3& p : pts) mean += p;
  mean /= static_cast<double>(pts.size());
  EXPECT_NEAR(norm(root.centroid - mean), 0.0, 1e-9);
}

TEST(OctreeTest, LeavesPartitionPointsInOrder) {
  const auto pts = random_points(1500, 5);
  const Octree tree = Octree::build(pts, {.leaf_capacity = 12, .max_depth = 20, .domain = {}});
  std::uint32_t cursor = 0;
  for (const std::uint32_t leaf_id : tree.leaves()) {
    const OctreeNode& leaf = tree.node(leaf_id);
    EXPECT_TRUE(leaf.is_leaf());
    EXPECT_EQ(leaf.begin, cursor);
    cursor = leaf.end;
  }
  EXPECT_EQ(cursor, tree.num_points());
}

TEST(OctreeTest, LeafCapacityRespected) {
  const auto pts = random_points(4000, 6);
  const Octree::BuildParams params{.leaf_capacity = 25, .max_depth = 20, .domain = {}};
  const Octree tree = Octree::build(pts, params);
  for (const std::uint32_t leaf_id : tree.leaves()) {
    const OctreeNode& leaf = tree.node(leaf_id);
    // Random points never collide at depth 20, so capacity must hold.
    EXPECT_LE(leaf.count(), params.leaf_capacity);
  }
}

TEST(OctreeTest, DuplicatePointsTerminateViaDepthBound) {
  std::vector<Vec3> pts(100, Vec3{1, 1, 1});
  pts.resize(150, Vec3{2, 2, 2});
  const Octree tree = Octree::build(pts, {.leaf_capacity = 4, .max_depth = 6, .domain = {}});
  EXPECT_LE(tree.height(), 6);
  std::size_t total = 0;
  for (const std::uint32_t leaf_id : tree.leaves()) total += tree.node(leaf_id).count();
  EXPECT_EQ(total, pts.size());
}

TEST(OctreeTest, BuildIsBitIdenticalAtAnyAffinity) {
  // Large enough for every CPU to get blocks: random points, a duplicate-
  // point set that ends in depth-bounded single-child chains, and a pinned
  // domain that clamps points onto its faces.
  std::vector<Vec3> dup(40000, Vec3{1, 1, 1});
  dup.resize(60000, Vec3{2, 2, 2});
  Aabb small_domain;
  small_domain.expand(Vec3{-5, -5, -5});
  small_domain.expand(Vec3{5, 5, 5});
  const struct {
    std::vector<Vec3> points;
    Octree::BuildParams params;
  } cases[] = {
      {random_points(50000, 11), {.leaf_capacity = 8, .max_depth = 20, .domain = {}}},
      {dup, {.leaf_capacity = 4, .max_depth = 6, .domain = {}}},
      {random_points(30000, 12), {.leaf_capacity = 32, .max_depth = 20, .domain = small_domain}},
  };
  for (const auto& c : cases) {
    Octree serial;
    {
      const testing::PinnedCpus one(1);
      ASSERT_TRUE(one.ok());
      serial = Octree::build(c.points, c.params);
    }
    // The serial reference of the sort: the stable Morton permutation.
    const Aabb box = c.params.domain.empty() ? bounding_box(c.points) : c.params.domain;
    EXPECT_TRUE(testing::same_bytes(
        serial.permutation(), morton::sort_permutation(morton::encode_points(c.points, box))));
    for (const int cpus : {2, 0}) {  // 0: the whole affinity mask
      std::optional<testing::PinnedCpus> pin;
      if (cpus > 0 && !pin.emplace(cpus).ok()) continue;  // the host has fewer CPUs
      EXPECT_TRUE(testing::same_octree(Octree::build(c.points, c.params), serial))
          << c.points.size() << " points, " << cpus << " CPUs";
    }
  }
}

TEST(OctreeTest, HeightGrowsLogarithmically) {
  const Octree small = Octree::build(random_points(100, 7),
      {.leaf_capacity = 8, .max_depth = 20, .domain = {}});
  const Octree large = Octree::build(random_points(10000, 7),
      {.leaf_capacity = 8, .max_depth = 20, .domain = {}});
  EXPECT_GT(large.height(), small.height());
  EXPECT_LE(large.height(), 12);  // uniform points: ~log8(10000/8) + margin
}

TEST(OctreeTest, FootprintLinearInPoints) {
  const Octree small = Octree::build(random_points(1000, 8),
      {.leaf_capacity = 16, .max_depth = 20, .domain = {}});
  const Octree large = Octree::build(random_points(8000, 8),
      {.leaf_capacity = 16, .max_depth = 20, .domain = {}});
  const double ratio = static_cast<double>(large.footprint().bytes) /
                       static_cast<double>(small.footprint().bytes);
  EXPECT_GT(ratio, 5.0);
  EXPECT_LT(ratio, 12.0);
}

TEST(OctreeTest, RefitUpdatesGeometryWithoutRebuilding) {
  const auto pts = random_points(800, 10);
  Octree tree = Octree::build(pts, {.leaf_capacity = 8, .max_depth = 20, .domain = {}});
  const std::size_t nodes_before = tree.nodes().size();

  // Shift every point; topology must survive, geometry must follow.
  std::vector<Vec3> moved = pts;
  for (Vec3& p : moved) p += Vec3{2.5, -1.0, 0.5};
  tree.refit(moved);
  EXPECT_EQ(tree.nodes().size(), nodes_before);
  for (std::uint32_t slot = 0; slot < tree.num_points(); ++slot)
    EXPECT_EQ(tree.point(slot), moved[tree.original_index(slot)]);
  // Enclosing balls remain valid (the property near/far tests rely on).
  for (const OctreeNode& node : tree.nodes()) {
    for (std::uint32_t i = node.begin; i < node.end; ++i)
      EXPECT_LE(distance(tree.point(i), node.centroid), node.radius + 1e-9);
  }
}

TEST(OctreeTest, RefitWithRandomPerturbationKeepsBallsValid) {
  const auto pts = random_points(500, 11);
  Octree tree = Octree::build(pts, {.leaf_capacity = 16, .max_depth = 20, .domain = {}});
  Rng rng(99);
  std::vector<Vec3> moved = pts;
  for (Vec3& p : moved)
    p += Vec3{rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)};
  tree.refit(moved);
  for (const OctreeNode& node : tree.nodes()) {
    for (std::uint32_t i = node.begin; i < node.end; ++i)
      ASSERT_LE(distance(tree.point(i), node.centroid), node.radius + 1e-9);
  }
}

TEST(OctreeTest, MortonOrderKeepsSpatialLocality) {
  // Points in one octant occupy a contiguous slot range under the root.
  const Molecule mol = molgen::synthetic_protein(2000, 9);
  std::vector<Vec3> pts(mol.size());
  for (std::size_t i = 0; i < mol.size(); ++i) pts[i] = mol.atom(i).pos;
  const Octree tree = Octree::build(pts, {.leaf_capacity = 16, .max_depth = 20, .domain = {}});
  const OctreeNode& root = tree.root();
  ASSERT_FALSE(root.is_leaf());
  // Each child's points must be closer to their own centroid than to the
  // centroid of any sibling, on average.
  for (std::uint8_t c = 0; c < root.child_count; ++c) {
    const OctreeNode& child = tree.node(static_cast<std::uint32_t>(root.first_child) + c);
    double own = 0.0, other = 0.0;
    for (std::uint32_t i = child.begin; i < child.end; ++i) {
      own += distance(tree.point(i), child.centroid);
      other += distance(tree.point(i), root.centroid);
    }
    EXPECT_LE(own, other + 1e-9);
  }
}

}  // namespace
}  // namespace gbpol
