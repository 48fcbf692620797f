// Gradient solvers: analytic naive gradient against central finite
// differences of the energy, and the octree gradient against the naive one.
#include "core/forces.hpp"

#include <cmath>
#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "core/kernels_simd.hpp"
#include "core/naive.hpp"
#include "test_helpers.hpp"

namespace gbpol {
namespace {

using testing::Fixture;
using testing::make_fixture;
using testing::naive_born_sorted;

// Energy with FROZEN Born radii (the function the gradient differentiates).
double frozen_energy(std::vector<Atom> atoms, std::span<const double> born,
                     const GBConstants& constants) {
  return naive_epol(atoms, born, constants);
}

TEST(NaiveGradient, MatchesFiniteDifferences) {
  const Molecule mol = molgen::synthetic_protein(60, 123);
  std::vector<Atom> atoms{mol.atoms().begin(), mol.atoms().end()};
  std::vector<double> born(atoms.size());
  for (std::size_t i = 0; i < atoms.size(); ++i) born[i] = 1.5 + 0.1 * (i % 7);
  const GBConstants constants;

  const auto grad = naive_epol_gradient(atoms, born, constants);
  const double h = 1e-6;
  for (const std::size_t i : {std::size_t{0}, atoms.size() / 2, atoms.size() - 1}) {
    for (int axis = 0; axis < 3; ++axis) {
      auto shift = [&](double delta) {
        std::vector<Atom> moved = atoms;
        double* coord = axis == 0   ? &moved[i].pos.x
                        : axis == 1 ? &moved[i].pos.y
                                    : &moved[i].pos.z;
        *coord += delta;
        return frozen_energy(std::move(moved), born, constants);
      };
      const double fd = (shift(h) - shift(-h)) / (2.0 * h);
      const double an = axis == 0 ? grad[i].x : axis == 1 ? grad[i].y : grad[i].z;
      EXPECT_NEAR(an, fd, 1e-5 * (1.0 + std::abs(fd)))
          << "atom " << i << " axis " << axis;
    }
  }
}

TEST(NaiveGradient, TranslationInvarianceSumsToZero) {
  // E depends only on pair distances: the gradients must sum to zero.
  const Molecule mol = molgen::synthetic_protein(200, 5);
  std::vector<double> born(mol.size(), 2.0);
  const auto grad = naive_epol_gradient(mol.atoms(), born, GBConstants{});
  Vec3 total;
  for (const Vec3& g : grad) total += g;
  double scale = 0.0;
  for (const Vec3& g : grad) scale = std::max(scale, norm(g));
  EXPECT_LT(norm(total), 1e-9 * std::max(scale, 1.0));
}

TEST(NaiveGradient, TwoAtomNewtonsThirdLaw) {
  const std::vector<Atom> atoms{{Vec3{0, 0, 0}, 1.0, 0.5}, {Vec3{3, 1, -2}, 1.0, -0.8}};
  const double born[] = {1.5, 2.0};
  const auto grad = naive_epol_gradient(atoms, born, GBConstants{});
  EXPECT_NEAR(norm(grad[0] + grad[1]), 0.0, 1e-12);
  // Opposite charges attract: E_pol pair term is positive-definite
  // screening; just check the directions are exactly anti-parallel.
  EXPECT_LT(dot(normalized(grad[0]), normalized(grad[1])), -0.999999);
}

class OctreeGradientTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { fixture_ = new Fixture(make_fixture(600)); }
  static void TearDownTestSuite() { delete fixture_; }
  static Fixture* fixture_;
};
Fixture* OctreeGradientTest::fixture_ = nullptr;

TEST_F(OctreeGradientTest, MatchesNaiveGradientWithinApproximation) {
  const auto born_sorted = naive_born_sorted(*fixture_);
  ApproxParams params;  // eps 0.9
  const GBConstants constants;
  const EpolSolver epol(fixture_->prep, born_sorted, params, constants);
  const EpolGradientSolver solver(fixture_->prep, born_sorted, epol, constants);
  const auto octree_grad = solver.gradient_all();
  const auto naive_grad =
      naive_epol_gradient(fixture_->mol.atoms(), fixture_->naive_born, constants);

  double ref_scale = 0.0;
  for (const Vec3& g : naive_grad) ref_scale = std::max(ref_scale, norm(g));
  double worst = 0.0;
  for (std::size_t i = 0; i < naive_grad.size(); ++i)
    worst = std::max(worst, norm(octree_grad[i] - naive_grad[i]));
  EXPECT_LT(worst, 0.08 * ref_scale);  // far-field binning tolerance
}

TEST_F(OctreeGradientTest, LeafRangesPartitionGradient) {
  const auto born_sorted = naive_born_sorted(*fixture_);
  ApproxParams params;
  const GBConstants constants;
  const EpolSolver epol(fixture_->prep, born_sorted, params, constants);
  const EpolGradientSolver solver(fixture_->prep, born_sorted, epol, constants);

  const auto n = static_cast<std::uint32_t>(fixture_->prep.atoms_tree.leaves().size());
  std::vector<Vec3> whole(fixture_->prep.num_atoms());
  solver.gradient_for_leaf_range(0, n, whole);
  std::vector<Vec3> pieces(fixture_->prep.num_atoms());
  solver.gradient_for_leaf_range(0, n / 2, pieces);
  solver.gradient_for_leaf_range(n / 2, n, pieces);
  for (std::size_t i = 0; i < whole.size(); ++i)
    ASSERT_EQ(pieces[i], whole[i]) << "atom slot " << i;
}

TEST_F(OctreeGradientTest, TighterEpsilonImprovesAgreement) {
  const auto born_sorted = naive_born_sorted(*fixture_);
  const GBConstants constants;
  const auto naive_grad =
      naive_epol_gradient(fixture_->mol.atoms(), fixture_->naive_born, constants);
  double prev = 1e300;
  for (const double eps : {0.9, 0.3, 0.1}) {
    ApproxParams params;
    params.eps_epol = eps;
    const EpolSolver epol(fixture_->prep, born_sorted, params, constants);
    const EpolGradientSolver solver(fixture_->prep, born_sorted, epol, constants);
    const auto grad = solver.gradient_all();
    double err = 0.0;
    for (std::size_t i = 0; i < grad.size(); ++i)
      err += norm(grad[i] - naive_grad[i]);
    EXPECT_LE(err, prev * 1.05 + 1e-12) << "eps=" << eps;
    prev = err;
  }
}

// --- forced-dispatch battery ------------------------------------------------
// The FD and octree-vs-naive gradient checks re-run under each forced
// GBPOL_SIMD path, so a bug in one near-kernel variant (explicit AVX2 or
// AVX-512 vs the batched SoA fallback) cannot hide behind whichever path the
// host CPU happens to select. "off" forces the SoA path; "avx2" pins the
// AVX2 tier; "auto" re-enables the runtime's best tier (AVX-512 or AVX2
// where compiled in and supported).
class ForcedSimdGradientTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    setenv("GBPOL_SIMD", GetParam(), /*overwrite=*/1);
    simd_dispatch_refresh();
  }
  void TearDown() override {
    unsetenv("GBPOL_SIMD");
    simd_dispatch_refresh();
  }
};

TEST_P(ForcedSimdGradientTest, FiniteDifferencesMatchUnderForcedPath) {
  const Molecule mol = molgen::synthetic_protein(60, 123);
  std::vector<Atom> atoms{mol.atoms().begin(), mol.atoms().end()};
  std::vector<double> born(atoms.size());
  for (std::size_t i = 0; i < atoms.size(); ++i) born[i] = 1.5 + 0.1 * (i % 7);
  const GBConstants constants;

  const auto grad = naive_epol_gradient(atoms, born, constants);
  const double h = 1e-6;
  for (const std::size_t i : {std::size_t{0}, atoms.size() / 2, atoms.size() - 1}) {
    for (int axis = 0; axis < 3; ++axis) {
      auto shift = [&](double delta) {
        std::vector<Atom> moved = atoms;
        double* coord = axis == 0   ? &moved[i].pos.x
                        : axis == 1 ? &moved[i].pos.y
                                    : &moved[i].pos.z;
        *coord += delta;
        return frozen_energy(std::move(moved), born, constants);
      };
      const double fd = (shift(h) - shift(-h)) / (2.0 * h);
      const double an = axis == 0 ? grad[i].x : axis == 1 ? grad[i].y : grad[i].z;
      EXPECT_NEAR(an, fd, 1e-5 * (1.0 + std::abs(fd)))
          << "atom " << i << " axis " << axis;
    }
  }
}

TEST_P(ForcedSimdGradientTest, OctreeGradientMatchesNaiveUnderForcedPath) {
  const Fixture fixture = make_fixture(240);
  const auto born_sorted = naive_born_sorted(fixture);
  ApproxParams params;
  const GBConstants constants;
  const EpolSolver epol(fixture.prep, born_sorted, params, constants);
  const EpolGradientSolver solver(fixture.prep, born_sorted, epol, constants);
  const auto octree_grad = solver.gradient_all();
  const auto naive_grad =
      naive_epol_gradient(fixture.mol.atoms(), fixture.naive_born, constants);

  double ref_scale = 0.0;
  for (const Vec3& g : naive_grad) ref_scale = std::max(ref_scale, norm(g));
  double worst = 0.0;
  for (std::size_t i = 0; i < naive_grad.size(); ++i)
    worst = std::max(worst, norm(octree_grad[i] - naive_grad[i]));
  EXPECT_LT(worst, 0.08 * ref_scale) << "dispatch " << simd_dispatch_name();
}

INSTANTIATE_TEST_SUITE_P(Dispatch, ForcedSimdGradientTest,
                         ::testing::Values("off", "avx2", "auto"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace gbpol
