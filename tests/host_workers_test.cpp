// Bit-identity battery for the host stages that run on short-lived workers
// (support/workers.hpp): Prepared::build and the planning walks equal their
// serial results byte for byte whatever the calling thread's affinity mask,
// on every molecule the benchmark workloads draw from.
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "core/halo_exchange.hpp"
#include "core/interaction_lists.hpp"
#include "core/prepared.hpp"
#include "surface/quadrature.hpp"
#include "test_helpers.hpp"

namespace gbpol {
namespace {

using testing::PinnedCpus;

// Leaf capacity of the benchmark requests (ApproxParams' default).
constexpr std::uint32_t kLeafCapacity = 32;

// The affinities every check runs at: one CPU, two, and the whole mask (0).
constexpr int kAffinities[] = {1, 2, 0};

bool same_walk(const LeafWalk& a, const LeafWalk& b) {
  return testing::same_bytes(a.interactions, b.interactions) &&
         testing::same_bytes(a.near_start, b.near_start) &&
         testing::same_bytes(a.near_targets, b.near_targets);
}

// The serial reference of walk_planning: one full-range walk per source tree.
PlanningWalks serial_walks(const Prepared& prep, const ApproxParams& params) {
  return PlanningWalks{
      .born = walk_source_leaves(
          prep.atoms_tree, prep.q_tree,
          {.far_multiplier = params.born_far_multiplier(),
           .exact_at_target_leaf = false,
           .source_leaf_lo = 0,
           .source_leaf_hi = static_cast<std::uint32_t>(prep.q_tree.leaves().size())}),
      .epol = walk_source_leaves(
          prep.atoms_tree, prep.atoms_tree,
          {.far_multiplier = params.epol_far_multiplier(),
           .exact_at_target_leaf = true,
           .source_leaf_lo = 0,
           .source_leaf_hi = static_cast<std::uint32_t>(prep.atoms_tree.leaves().size())})};
}

// `box` grown unevenly, so the domain-pinned overload quantizes against a
// box that differs from the fitted one.
Aabb grown(Aabb box) {
  box.expand(box.lo - Vec3{1.5, 0.5, 2.0});
  box.expand(box.hi + Vec3{0.5, 3.0, 1.0});
  return box;
}

TEST(HostWorkersTest, PrepareAndPlanAreBitIdenticalAtAnyAffinity) {
  const ApproxParams params;
  for (const Molecule& mol : testing::bench_molecules()) {
    const surface::SurfaceQuadrature quad =
        surface::molecular_surface_quadrature(mol, testing::kBenchSurface);
    const Aabb atoms_domain = grown(mol.bounding_box());
    const Aabb q_domain = grown(bounding_box(quad.points));

    std::optional<Prepared> serial, serial_pinned;
    for (const int cpus : kAffinities) {
      std::optional<PinnedCpus> pin;
      if (cpus > 0 && !pin.emplace(cpus).ok()) continue;  // the host has fewer CPUs
      Prepared prep = Prepared::build(mol, quad, kLeafCapacity);
      Prepared pinned = Prepared::build(mol, quad, kLeafCapacity, atoms_domain, q_domain);
      if (!serial) {
        ASSERT_EQ(cpus, 1);
        serial.emplace(std::move(prep));
        serial_pinned.emplace(std::move(pinned));
        continue;
      }
      ASSERT_TRUE(testing::same_prepared(prep, *serial)) << mol.name() << ", " << cpus << " CPUs";
      ASSERT_TRUE(testing::same_prepared(pinned, *serial_pinned))
          << mol.name() << " (pinned domains), " << cpus << " CPUs";
    }

    const PlanningWalks reference = serial_walks(*serial, params);
    for (const int cpus : kAffinities) {
      std::optional<PinnedCpus> pin;
      if (cpus > 0 && !pin.emplace(cpus).ok()) continue;
      const PlanningWalks walks = walk_planning(*serial, params);
      ASSERT_TRUE(same_walk(walks.born, reference.born))
          << mol.name() << " Born walk, " << cpus << " CPUs";
      ASSERT_TRUE(same_walk(walks.epol, reference.epol))
          << mol.name() << " E_pol walk, " << cpus << " CPUs";
    }
  }
}

TEST(HostWorkersTest, DuplicatePointsPrepareIdenticallyAtAnyAffinity) {
  // OctreeTest.DuplicatePointsTerminateViaDepthBound's shape, large enough
  // for every CPU to get blocks: two stacks of coincident atoms and
  // quadrature points, so both trees end in depth-bounded chains.
  std::vector<Atom> atoms(12000, Atom{Vec3{1, 1, 1}, 1.5, 0.25});
  atoms.resize(20000, Atom{Vec3{2, 2, 2}, 1.7, -0.5});
  const Molecule mol("duplicates", atoms);
  surface::SurfaceQuadrature quad;
  for (std::size_t i = 0; i < 30000; ++i) {
    quad.points.push_back(i < 18000 ? Vec3{1, 1, 1} : Vec3{2, 2, 2});
    quad.normals.push_back(i % 2 == 0 ? Vec3{0, 0, 1} : Vec3{0.6, 0.8, 0});
    quad.weights.push_back(0.01 * static_cast<double>(1 + i % 7));
  }
  std::optional<Prepared> serial;
  for (const int cpus : kAffinities) {
    std::optional<PinnedCpus> pin;
    if (cpus > 0 && !pin.emplace(cpus).ok()) continue;
    Prepared prep = Prepared::build(mol, quad, 4);
    EXPECT_LE(prep.q_tree.height(), 20);
    if (!serial) {
      serial.emplace(std::move(prep));
      continue;
    }
    EXPECT_TRUE(testing::same_prepared(prep, *serial)) << cpus << " CPUs";
  }
}

}  // namespace
}  // namespace gbpol
