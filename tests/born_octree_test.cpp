// APPROX-INTEGRALS / PUSH-INTEGRALS-TO-ATOMS (Fig. 2) against the naive
// Eq. (4) reference, plus the structural invariants the distributed drivers
// rely on (segment additivity, push-range partitioning).
#include "core/born_octree.hpp"

#include <gtest/gtest.h>

#include "support/stats.hpp"
#include "test_helpers.hpp"

namespace gbpol {
namespace {

using testing::Fixture;
using testing::make_fixture;

class BornOctreeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { fixture_ = new Fixture(make_fixture(700)); }
  static void TearDownTestSuite() {
    delete fixture_;
    fixture_ = nullptr;
  }
  static const Fixture& fix() { return *fixture_; }

  static std::vector<double> solve(const ApproxParams& params) {
    const BornSolver solver(fix().prep, params);
    BornAccumulator acc = solver.make_accumulator();
    const auto leaves = fix().prep.q_tree.leaves();
    solver.accumulate_qleaf_range(0, static_cast<std::uint32_t>(leaves.size()), acc);
    std::vector<double> born(fix().prep.num_atoms(), 0.0);
    solver.push_to_atoms(acc, 0, static_cast<std::uint32_t>(born.size()), born);
    return fix().prep.to_original_order(born);
  }

  static Fixture* fixture_;
};
Fixture* BornOctreeTest::fixture_ = nullptr;

double max_rel_error(std::span<const double> got, std::span<const double> want) {
  double worst = 0.0;
  for (std::size_t i = 0; i < got.size(); ++i)
    worst = std::max(worst, percent_error(got[i], want[i]));
  return worst;  // percent
}

TEST_F(BornOctreeTest, TinyEpsilonMatchesNaiveClosely) {
  ApproxParams params;
  params.eps_born = 0.05;
  const auto born = solve(params);
  EXPECT_LT(max_rel_error(born, fix().naive_born), 0.5);  // < 0.5% per atom
}

TEST_F(BornOctreeTest, PaperEpsilonStaysWithinFewPercent) {
  ApproxParams params;
  params.eps_born = 0.9;
  const auto born = solve(params);
  EXPECT_LT(max_rel_error(born, fix().naive_born), 10.0);
  // Mean error should be much tighter than the worst atom.
  double sum = 0.0;
  for (std::size_t i = 0; i < born.size(); ++i)
    sum += percent_error(born[i], fix().naive_born[i]);
  EXPECT_LT(sum / static_cast<double>(born.size()), 2.0);
}

TEST_F(BornOctreeTest, ErrorDecreasesWithEpsilon) {
  double prev = 1e100;
  for (const double eps : {0.9, 0.45, 0.2, 0.05}) {
    ApproxParams params;
    params.eps_born = eps;
    const auto born = solve(params);
    double sum = 0.0;
    for (std::size_t i = 0; i < born.size(); ++i)
      sum += percent_error(born[i], fix().naive_born[i]);
    const double mean = sum / static_cast<double>(born.size());
    EXPECT_LE(mean, prev * 1.10 + 1e-9) << "eps=" << eps;  // allow 10% noise
    prev = mean;
  }
}

TEST_F(BornOctreeTest, QLeafSegmentsAddUpToWholeAccumulation) {
  // Fig. 4 step 2+3: per-rank segment accumulators, summed, must equal the
  // single full accumulation (same terms, same per-leaf order).
  ApproxParams params;
  const BornSolver solver(fix().prep, params);
  const auto leaves = fix().prep.q_tree.leaves();
  const auto n_leaves = static_cast<std::uint32_t>(leaves.size());

  BornAccumulator whole = solver.make_accumulator();
  solver.accumulate_qleaf_range(0, n_leaves, whole);

  for (const int parts : {2, 3, 7}) {
    BornAccumulator merged = solver.make_accumulator();
    for (int i = 0; i < parts; ++i) {
      const std::uint32_t lo = n_leaves * i / parts;
      const std::uint32_t hi = n_leaves * (i + 1) / parts;
      BornAccumulator seg = solver.make_accumulator();
      solver.accumulate_qleaf_range(lo, hi, seg);
      merged.add(seg);
    }
    const auto a = whole.flat();
    const auto b = merged.flat();
    for (std::size_t k = 0; k < a.size(); ++k)
      ASSERT_NEAR(a[k], b[k], 1e-12 * (std::abs(a[k]) + 1.0)) << "parts=" << parts;
  }
}

TEST_F(BornOctreeTest, PushRangesPartitionAtoms) {
  ApproxParams params;
  const BornSolver solver(fix().prep, params);
  BornAccumulator acc = solver.make_accumulator();
  const auto leaves = fix().prep.q_tree.leaves();
  solver.accumulate_qleaf_range(0, static_cast<std::uint32_t>(leaves.size()), acc);

  const auto n = static_cast<std::uint32_t>(fix().prep.num_atoms());
  std::vector<double> whole(n, 0.0), pieces(n, 0.0);
  solver.push_to_atoms(acc, 0, n, whole);
  for (const std::uint32_t split : {n / 3, n / 2, n - 1}) {
    std::fill(pieces.begin(), pieces.end(), 0.0);
    solver.push_to_atoms(acc, 0, split, pieces);
    solver.push_to_atoms(acc, split, n, pieces);
    for (std::uint32_t i = 0; i < n; ++i)
      ASSERT_EQ(pieces[i], whole[i]) << "split=" << split << " atom=" << i;
  }
}

TEST_F(BornOctreeTest, StrictCriterionIsMoreAccurateAndDoesMoreWork) {
  ApproxParams loose;
  loose.eps_born = 0.9;
  ApproxParams strict = loose;
  strict.born_strict_criterion = true;

  const BornSolver loose_solver(fix().prep, loose);
  const BornSolver strict_solver(fix().prep, strict);
  const auto n_leaves = static_cast<std::uint32_t>(fix().prep.q_tree.leaves().size());
  const auto loose_stats = loose_solver.count_qleaf_range(0, n_leaves);
  const auto strict_stats = strict_solver.count_qleaf_range(0, n_leaves);
  EXPECT_GT(strict_stats.exact_pairs, loose_stats.exact_pairs);
  EXPECT_LE(strict_stats.far_terms, loose_stats.far_terms * 4 + 16);
}

TEST_F(BornOctreeTest, R4KernelMatchesNaiveR4) {
  ApproxParams params;
  params.radius_kernel = RadiusKernel::kR4;
  params.eps_born = 0.3;
  const auto born = solve(params);
  const auto naive_r4 = naive_born_radii_r4(fix().mol.atoms(), fix().quad);
  double mean_err = 0.0;
  for (std::size_t i = 0; i < born.size(); ++i)
    mean_err += percent_error(born[i], naive_r4[i]);
  EXPECT_LT(mean_err / static_cast<double>(born.size()), 2.0);
}

TEST_F(BornOctreeTest, R4RadiiExceedR6OnAverage) {
  // Grycuk 2003 / paper §II: the Coulomb-field (r^4) approximation
  // overestimates Born radii relative to the r^6 form.
  ApproxParams r6;
  ApproxParams r4;
  r4.radius_kernel = RadiusKernel::kR4;
  const auto born6 = solve(r6);
  const auto born4 = solve(r4);
  double mean6 = 0.0, mean4 = 0.0;
  for (std::size_t i = 0; i < born6.size(); ++i) {
    mean6 += born6[i];
    mean4 += born4[i];
  }
  EXPECT_GT(mean4, mean6);
}

TEST_F(BornOctreeTest, DipoleCorrectionReducesError) {
  ApproxParams base;
  base.eps_born = 0.9;
  ApproxParams corrected = base;
  corrected.born_dipole_correction = true;
  const auto plain = solve(base);
  const auto dipole = solve(corrected);
  double err_plain = 0.0, err_dipole = 0.0;
  for (std::size_t i = 0; i < plain.size(); ++i) {
    err_plain += percent_error(plain[i], fix().naive_born[i]);
    err_dipole += percent_error(dipole[i], fix().naive_born[i]);
  }
  EXPECT_LT(err_dipole, err_plain);
}

TEST_F(BornOctreeTest, AllRadiiRespectClamps) {
  ApproxParams params;
  const auto born = solve(params);
  for (std::size_t i = 0; i < born.size(); ++i) {
    EXPECT_GE(born[i], fix().mol.atom(i).radius);
    EXPECT_LE(born[i], kBornRadiusMax);
  }
}

}  // namespace
}  // namespace gbpol
