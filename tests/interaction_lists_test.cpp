// The list engine's contract (core/interaction_lists.hpp): the flat near/far
// lists reproduce the recursive engines' decomposition exactly, so Born radii
// and E_pol match TraversalMode::kRecursive to <= 1e-12 relative error, the
// parallel build equals the serial build entry-for-entry, and arbitrary list
// segmentations sum to the whole.
#include "core/interaction_lists.hpp"

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/born_octree.hpp"
#include "core/engine.hpp"
#include "core/epol_octree.hpp"
#include "test_helpers.hpp"

namespace gbpol {
namespace {

using testing::Fixture;
using testing::make_fixture;
using testing::naive_born_sorted;

double rel_diff(double a, double b) {
  const double denom = std::max(std::abs(a), std::abs(b));
  return denom == 0.0 ? 0.0 : std::abs(a - b) / denom;
}

std::vector<double> born_via_recursive(const Fixture& f, const ApproxParams& params) {
  const BornSolver solver(f.prep, params);
  BornAccumulator acc = solver.make_accumulator();
  const auto n_qleaves = static_cast<std::uint32_t>(f.prep.q_tree.leaves().size());
  solver.accumulate_qleaf_range(0, n_qleaves, acc);
  std::vector<double> born(f.prep.num_atoms());
  solver.push_to_atoms(acc, 0, static_cast<std::uint32_t>(born.size()), born);
  return born;
}

std::vector<double> born_via_lists(const Fixture& f, const ApproxParams& params) {
  const BornSolver solver(f.prep, params);
  BornAccumulator acc = solver.make_accumulator();
  const auto n_qleaves = static_cast<std::uint32_t>(f.prep.q_tree.leaves().size());
  const InteractionLists lists = solver.build_lists(0, n_qleaves);
  solver.accumulate_lists(lists, acc);
  std::vector<double> born(f.prep.num_atoms());
  solver.push_to_atoms(acc, 0, static_cast<std::uint32_t>(born.size()), born);
  return born;
}

class InteractionListsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    fixtures_ = new std::vector<Fixture>();
    fixtures_->push_back(make_fixture(300, 3));
    fixtures_->push_back(make_fixture(700, 7));
    fixtures_->push_back(make_fixture(500, 11, /*leaf_capacity=*/8));
  }
  static void TearDownTestSuite() { delete fixtures_; }
  static const std::vector<Fixture>& fixtures() { return *fixtures_; }

  static std::vector<Fixture>* fixtures_;
};
std::vector<Fixture>* InteractionListsTest::fixtures_ = nullptr;

// Born radii: list engine == recursive engine across molecules x kernels x
// dipole correction. The serial list build emits entries in recursion visit
// order and far/near terms land in disjoint accumulator slots, so the match
// is bit-level; 1e-12 is the contract we pin.
TEST_F(InteractionListsTest, BornRadiiMatchRecursiveAcrossVariants) {
  for (const Fixture& f : fixtures()) {
    for (const RadiusKernel kernel : {RadiusKernel::kR6, RadiusKernel::kR4}) {
      for (const bool dipole : {false, true}) {
        ApproxParams params;
        params.radius_kernel = kernel;
        params.born_dipole_correction = dipole;
        const std::vector<double> rec = born_via_recursive(f, params);
        const std::vector<double> lst = born_via_lists(f, params);
        ASSERT_EQ(rec.size(), lst.size());
        for (std::size_t i = 0; i < rec.size(); ++i) {
          EXPECT_LE(rel_diff(rec[i], lst[i]), 1e-12)
              << "atom slot " << i << " kernel=" << (kernel == RadiusKernel::kR6 ? "r6" : "r4")
              << " dipole=" << dipole;
        }
      }
    }
  }
}

// E_pol: list engine == recursive engine, with exact and approximate math.
TEST_F(InteractionListsTest, EpolMatchesRecursiveAcrossVariants) {
  for (const Fixture& f : fixtures()) {
    const std::vector<double> born = naive_born_sorted(f);
    for (const bool approx_math : {false, true}) {
      for (const double eps : {0.3, 0.9}) {
        ApproxParams params;
        params.approx_math = approx_math;
        params.eps_epol = eps;
        const EpolSolver solver(f.prep, born, params, GBConstants{});
        const auto n = static_cast<std::uint32_t>(f.prep.atoms_tree.leaves().size());
        const double rec = solver.energy_for_leaf_range(0, n);
        const double lst = solver.energy_from_lists(solver.build_lists(0, n));
        EXPECT_LE(rel_diff(rec, lst), 1e-12)
            << "approx_math=" << approx_math << " eps=" << eps;
      }
    }
  }
}

// Splitting either list at arbitrary points and evaluating the segments on
// separate accumulators must merge to the whole-list result — the property
// chunked list evaluation relies on.
TEST_F(InteractionListsTest, ListSegmentsComposeExactly) {
  const Fixture& f = fixtures()[0];
  ApproxParams params;
  const BornSolver solver(f.prep, params);
  const auto n_qleaves = static_cast<std::uint32_t>(f.prep.q_tree.leaves().size());
  const InteractionLists lists = solver.build_lists(0, n_qleaves);

  BornAccumulator whole = solver.make_accumulator();
  solver.accumulate_lists(lists, whole);

  BornAccumulator merged = solver.make_accumulator();
  {
    BornAccumulator part = solver.make_accumulator();
    const std::size_t fcut = lists.far.size() / 3;
    const std::size_t ncut = 2 * lists.near.size() / 3;
    solver.accumulate_far_range(lists, 0, fcut, merged);
    solver.accumulate_far_range(lists, fcut, lists.far.size(), part);
    solver.accumulate_near_range(lists, 0, ncut, part);
    solver.accumulate_near_range(lists, ncut, lists.near.size(), merged);
    merged.add(part);
  }
  const auto whole_flat = whole.flat();
  const auto merged_flat = merged.flat();
  ASSERT_EQ(whole_flat.size(), merged_flat.size());
  for (std::size_t i = 0; i < whole_flat.size(); ++i)
    EXPECT_LE(rel_diff(whole_flat[i], merged_flat[i]), 1e-12) << "slot " << i;

  const std::vector<double> born = naive_born_sorted(f);
  const EpolSolver epol(f.prep, born, params, GBConstants{});
  const auto n_aleaves = static_cast<std::uint32_t>(f.prep.atoms_tree.leaves().size());
  const InteractionLists elists = epol.build_lists(0, n_aleaves);
  const double whole_e = epol.energy_from_lists(elists);
  const std::size_t fcut = elists.far.size() / 2;
  const std::size_t ncut = elists.near.size() / 2;
  const double split_e = epol.energy_far_range(elists, 0, fcut) +
                         epol.energy_far_range(elists, fcut, elists.far.size()) +
                         epol.energy_near_range(elists, 0, ncut) +
                         epol.energy_near_range(elists, ncut, elists.near.size());
  EXPECT_LE(rel_diff(whole_e, split_e), 1e-12);
}

// Leaf-range restrictions must partition: lists built for [0,k) and [k,n)
// together cover exactly the full-range list.
TEST_F(InteractionListsTest, LeafRangePartitionCoversFullList) {
  const Fixture& f = fixtures()[2];
  ApproxParams params;
  const BornSolver solver(f.prep, params);
  const auto n = static_cast<std::uint32_t>(f.prep.q_tree.leaves().size());
  const std::uint32_t cut = n / 2;
  const InteractionLists full = solver.build_lists(0, n);
  const InteractionLists lo = solver.build_lists(0, cut);
  const InteractionLists hi = solver.build_lists(cut, n);
  ASSERT_EQ(full.far.size(), lo.far.size() + hi.far.size());
  ASSERT_EQ(full.near.size(), lo.near.size() + hi.near.size());
  EXPECT_EQ(full.near_point_pairs, lo.near_point_pairs + hi.near_point_pairs);
  for (std::size_t i = 0; i < full.far.size(); ++i) {
    const InteractionLists::Far& part =
        i < lo.far.size() ? lo.far[i] : hi.far[i - lo.far.size()];
    ASSERT_EQ(full.far[i].target_node, part.target_node) << i;
    ASSERT_EQ(full.far[i].source_leaf, part.source_leaf) << i;
  }
}

// The counting walk shares the list build's recursion, so for every source
// leaf of a sub-range its near row is the near entries' target leaves in
// emission order, and its interaction count is the near point pairs plus the
// far entries' source points. Checked under the Born (far test first) and
// E_pol (target leaves exact) parameters, on both source trees.
TEST_F(InteractionListsTest, LeafWalkMatchesListBuildPerSourceLeaf) {
  ApproxParams params;
  for (const Fixture& f : fixtures()) {
    const Octree& atoms = f.prep.atoms_tree;
    std::vector<std::uint32_t> leaf_ordinal(atoms.nodes().size(), 0);
    for (std::uint32_t i = 0; i < atoms.leaves().size(); ++i)
      leaf_ordinal[atoms.leaves()[i]] = i;

    for (const bool exact : {false, true}) {
      const Octree& source = exact ? atoms : f.prep.q_tree;
      const auto n = static_cast<std::uint32_t>(source.leaves().size());
      ASSERT_GE(n, 4u);
      const ListBuildParams lp{
          .far_multiplier = exact ? params.epol_far_multiplier()
                                  : params.born_far_multiplier(),
          .exact_at_target_leaf = exact,
          .source_leaf_lo = n / 4,
          .source_leaf_hi = n - n / 4};
      SCOPED_TRACE(std::string(exact ? "epol" : "born") + " leaves [" +
                   std::to_string(lp.source_leaf_lo) + ", " +
                   std::to_string(lp.source_leaf_hi) + ")");
      const LeafWalk walk = walk_source_leaves(atoms, source, lp);
      const std::uint32_t rows = lp.source_leaf_hi - lp.source_leaf_lo;
      ASSERT_EQ(walk.interactions.size(), rows);
      ASSERT_EQ(walk.near_start.size(), rows + 1);
      EXPECT_EQ(walk.near_start.front(), 0u);
      EXPECT_EQ(walk.near_start.back(), walk.near_targets.size());

      std::uint64_t near_entries = 0;
      for (std::uint32_t i = 0; i < rows; ++i) {
        const std::uint32_t leaf = lp.source_leaf_lo + i;
        ListBuildParams one = lp;
        one.source_leaf_lo = leaf;
        one.source_leaf_hi = leaf + 1;
        const InteractionLists lists = build_interaction_lists(atoms, source, one);
        const std::uint32_t src_points = source.node(source.leaves()[leaf]).count();

        std::vector<std::uint32_t> expected_row;
        for (const InteractionLists::Near& nr : lists.near)
          expected_row.push_back(leaf_ordinal[nr.target_leaf]);
        const auto row = walk.near_row(i);
        EXPECT_EQ(std::vector<std::uint32_t>(row.begin(), row.end()), expected_row)
            << "source leaf " << leaf;
        EXPECT_EQ(walk.interactions[i],
                  lists.near_point_pairs +
                      static_cast<std::uint64_t>(lists.far.size()) * src_points)
            << "source leaf " << leaf;
        near_entries += lists.near.size();
      }
      EXPECT_EQ(walk.near_targets.size(), near_entries);
      EXPECT_GT(near_entries, 0u);
    }
  }
}

// End-to-end: the drivers under kList vs kRecursive agree on energy and every
// Born radius, serial and distributed.
TEST_F(InteractionListsTest, DriversAgreeAcrossTraversalModes) {
  const Fixture& f = fixtures()[1];
  const GBConstants constants;

  const Engine engine(f.prep, ApproxParams{}, constants);
  const RunResult serial_list = engine.run(serial_options(TraversalMode::kList));
  const RunResult serial_rec = engine.run(serial_options(TraversalMode::kRecursive));
  EXPECT_LE(rel_diff(serial_list.energy, serial_rec.energy), 1e-12);
  ASSERT_EQ(serial_list.born_sorted.size(), serial_rec.born_sorted.size());
  for (std::size_t i = 0; i < serial_list.born_sorted.size(); ++i)
    EXPECT_LE(rel_diff(serial_list.born_sorted[i], serial_rec.born_sorted[i]), 1e-12);

  RunOptions config;
  config.mode = EngineMode::kDistributed;
  config.ranks = 3;
  config.threads_per_rank = 2;
  config.traversal = TraversalMode::kList;
  const RunResult dist_list = engine.run(config);
  // The chunk fold reassociates per-chunk partial sums, so compare against
  // the serial result at the drivers' established cross-mode tolerance.
  EXPECT_LE(rel_diff(dist_list.energy, serial_list.energy), 1e-9);
  for (std::size_t i = 0; i < dist_list.born_sorted.size(); ++i)
    EXPECT_LE(rel_diff(dist_list.born_sorted[i], serial_list.born_sorted[i]), 1e-9);
}

}  // namespace
}  // namespace gbpol
