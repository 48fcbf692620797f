// APPROX-EPOL (Fig. 3) against the naive Eq. (2) reference, plus the
// division properties of §IV-A (node-node P-invariance, atom-based drift).
#include "core/epol_octree.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "support/stats.hpp"
#include "test_helpers.hpp"

namespace gbpol {
namespace {

using testing::Fixture;
using testing::make_fixture;
using testing::naive_born_sorted;

class EpolOctreeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    fixture_ = new Fixture(make_fixture(700));
    born_sorted_ = new std::vector<double>(naive_born_sorted(*fixture_));
  }
  static void TearDownTestSuite() {
    delete fixture_;
    delete born_sorted_;
  }
  static const Fixture& fix() { return *fixture_; }
  static std::span<const double> born() { return *born_sorted_; }

  static double full_energy(const EpolSolver& solver) {
    const auto n = static_cast<std::uint32_t>(fix().prep.atoms_tree.leaves().size());
    return solver.energy_for_leaf_range(0, n);
  }

  static Fixture* fixture_;
  static std::vector<double>* born_sorted_;
};
Fixture* EpolOctreeTest::fixture_ = nullptr;
std::vector<double>* EpolOctreeTest::born_sorted_ = nullptr;

TEST_F(EpolOctreeTest, TinyEpsilonMatchesNaiveEnergy) {
  ApproxParams params;
  params.eps_epol = 0.05;
  const EpolSolver solver(fix().prep, born(), params, GBConstants{});
  EXPECT_LT(percent_error(full_energy(solver), fix().naive_energy), 0.2);
}

TEST_F(EpolOctreeTest, PaperEpsilonWithinFewPercent) {
  ApproxParams params;
  params.eps_epol = 0.9;
  const EpolSolver solver(fix().prep, born(), params, GBConstants{});
  EXPECT_LT(percent_error(full_energy(solver), fix().naive_energy), 5.0);
}

TEST_F(EpolOctreeTest, ErrorGrowsWithEpsilon) {
  // Fig. 10's core claim: increasing eps increases error. Allow slack for
  // non-monotonic cancellation at neighbouring values; compare extremes.
  ApproxParams tight;
  tight.eps_epol = 0.1;
  ApproxParams loose;
  loose.eps_epol = 0.9;
  const EpolSolver solver_tight(fix().prep, born(), tight, GBConstants{});
  const EpolSolver solver_loose(fix().prep, born(), loose, GBConstants{});
  const double err_tight = percent_error(full_energy(solver_tight), fix().naive_energy);
  const double err_loose = percent_error(full_energy(solver_loose), fix().naive_energy);
  EXPECT_LE(err_tight, err_loose + 0.05);
}

TEST_F(EpolOctreeTest, LeafSegmentsSumToTotalForAnyPartitioning) {
  // Node-node work division (Fig. 4 step 6): the energy is a sum over leaf
  // segments, and the segmentation must not change WHAT is computed.
  ApproxParams params;
  const EpolSolver solver(fix().prep, born(), params, GBConstants{});
  const auto n = static_cast<std::uint32_t>(fix().prep.atoms_tree.leaves().size());
  const double whole = solver.energy_for_leaf_range(0, n);
  for (const int parts : {2, 5, 12}) {
    double sum = 0.0;
    for (int i = 0; i < parts; ++i)
      sum += solver.energy_for_leaf_range(n * i / parts, n * (i + 1) / parts);
    EXPECT_NEAR(sum, whole, std::abs(whole) * 1e-12) << "parts=" << parts;
  }
}

TEST_F(EpolOctreeTest, AtomRangeDivisionDriftsWithPartitioning) {
  // §IV-A: atom-based division re-aggregates truncated boundary leaves, so
  // DIFFERENT partitionings give (slightly) different energies — unlike the
  // node-based division above.
  ApproxParams params;
  params.eps_epol = 0.9;
  const EpolSolver solver(fix().prep, born(), params, GBConstants{});
  const auto n = static_cast<std::uint32_t>(fix().prep.num_atoms());

  const double one_part = solver.energy_for_atom_range(0, n);
  double multi = 0.0;
  const int parts = 7;
  for (int i = 0; i < parts; ++i)
    multi += solver.energy_for_atom_range(n * i / parts, n * (i + 1) / parts);

  // Both are valid approximations of the same energy...
  EXPECT_LT(percent_error(one_part, fix().naive_energy), 6.0);
  EXPECT_LT(percent_error(multi, fix().naive_energy), 6.0);
  // ...but they are NOT the same computation.
  EXPECT_GT(std::abs(one_part - multi), std::abs(one_part) * 1e-10);
}

TEST_F(EpolOctreeTest, BinCountGrowsAsEpsilonShrinks) {
  ApproxParams loose;
  loose.eps_epol = 0.9;
  ApproxParams tight;
  tight.eps_epol = 0.1;
  const EpolSolver solver_loose(fix().prep, born(), loose, GBConstants{});
  const EpolSolver solver_tight(fix().prep, born(), tight, GBConstants{});
  EXPECT_GE(solver_tight.num_bins(), solver_loose.num_bins());
  EXPECT_GE(solver_loose.num_bins(), 1);
  EXPECT_LE(solver_loose.r_min(), solver_loose.r_max());
}

TEST_F(EpolOctreeTest, ApproxMathShiftsEnergySlightly) {
  // §V-E: approximate math shifts the error a few percent, it must not
  // change the sign or the scale.
  ApproxParams exact_math;
  ApproxParams approx_math;
  approx_math.approx_math = true;
  const EpolSolver s_exact(fix().prep, born(), exact_math, GBConstants{});
  const EpolSolver s_approx(fix().prep, born(), approx_math, GBConstants{});
  const double e_exact = full_energy(s_exact);
  const double e_approx = full_energy(s_approx);
  EXPECT_LT(e_approx, 0.0);
  EXPECT_LT(percent_error(e_approx, e_exact), 8.0);
  EXPECT_NE(e_approx, e_exact);
}

TEST_F(EpolOctreeTest, EnergyIsNegative) {
  ApproxParams params;
  const EpolSolver solver(fix().prep, born(), params, GBConstants{});
  EXPECT_LT(full_energy(solver), 0.0);
  EXPECT_LT(fix().naive_energy, 0.0);
}

}  // namespace
}  // namespace gbpol
