// Golden-value regression pinning: E_pol and Born radii for three seeded
// molecules (small / medium / large) are pinned to committed reference
// values at 1e-10 relative tolerance, and to the bit on kRecordedTier in an
// optimized, uninstrumented build.
// Catches silent numerical drift from refactors that stays inside the
// looser property-test tolerances.
//
// To regenerate after an INTENDED numerical change, run on a kRecordedTier
// host with
//   GBPOL_GOLDEN_REGEN=1 ./golden_energy_test
// and paste the printed table over kGolden below (justify the change in the
// commit message — these values are the contract).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iomanip>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "core/kernels_simd.hpp"
#include "molecule/generate.hpp"
#include "surface/quadrature.hpp"

namespace gbpol {
namespace {

struct GoldenCase {
  const char* name;
  std::size_t n_atoms;
  std::uint64_t seed;
  // Committed references (regenerate with GBPOL_GOLDEN_REGEN=1).
  double energy_list;       // E_pol, TraversalMode::kList (default engine)
  double energy_recursive;  // E_pol, TraversalMode::kRecursive (A/B baseline)
  double energy_atom_based;  // E_pol, WorkDivision::kAtomBased at P = 7
  double born_first;        // Born radius digest, atoms_tree order
  double born_middle;
  double born_last;
  double born_mean;
};

// Recorded on an AVX-512 host (simd_dispatch_name() == kRecordedTier).
constexpr GoldenCase kGolden[] = {
    {"small", 400, 21,
     -1164.0295346432367, -1164.0295346432358, -1164.3243004816934,
     1.4372946177771664, 2.209740363881167, 2.4653893056033072,
     4.026781772203627},
    {"medium", 1200, 22,
     -1307.2294729168566, -1307.2294729168545, -1305.9212250385881,
     1.3216090668027423, 2.874508723660286, 1.2,
     5.6772261446541581},
    {"large", 3000, 23,
     -4140.6879568687518, -4140.68795686877, -4146.0139394184862,
     1.9149627763775596, 7.8249094727121351, 1.782815854520273,
     5.0269731639976918},
};

constexpr double kTol = 1e-10;  // relative, on every tier and build
constexpr const char* kRecordedTier = "avx512";
// Sanitizer instrumentation and -O0 change how the kernels round (the asan
// preset reads different last bits on the recording tier), so only an
// optimized, uninstrumented build is held to the recorded bits.
#if defined(__OPTIMIZE__) && !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
constexpr bool kRecordingBuild = true;
#else
constexpr bool kRecordingBuild = false;
#endif

double rel_err(double got, double want) {
  return std::abs(got - want) / std::max(1.0, std::abs(want));
}

class GoldenEnergyTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenEnergyTest, MatchesCommittedReference) {
  const GoldenCase& g = GetParam();
  const Molecule mol = molgen::synthetic_protein(g.n_atoms, g.seed);
  const surface::SurfaceQuadrature quad = surface::molecular_surface_quadrature(
      mol, {.grid_spacing = 1.5, .dunavant_degree = 2, .kappa = 2.3});
  const Prepared prep = Prepared::build(mol, quad, 16);

  const Engine engine(prep, ApproxParams{}, GBConstants{});
  const RunResult list = engine.run(serial_options(TraversalMode::kList));
  const RunResult recursive = engine.run(serial_options(TraversalMode::kRecursive));
  RunOptions atom_options = distributed_options(7);
  atom_options.division = WorkDivision::kAtomBased;
  const RunResult atom_based = engine.run(atom_options);

  const std::vector<double>& born = list.born_sorted;
  ASSERT_FALSE(born.empty());
  double mean = 0.0;
  for (const double b : born) mean += b;
  mean /= static_cast<double>(born.size());

  if (std::getenv("GBPOL_GOLDEN_REGEN") != nullptr) {
    std::printf(
        "    {\"%s\", %zu, %llu,\n     %.17g, %.17g, %.17g,\n"
        "     %.17g, %.17g, %.17g,\n     %.17g},\n",
        g.name, g.n_atoms, static_cast<unsigned long long>(g.seed), list.energy,
        recursive.energy, atom_based.energy, born.front(), born[born.size() / 2],
        born.back(), mean);
    GTEST_SKIP() << "regen mode: printed fresh golden values";
  }

  EXPECT_LE(rel_err(list.energy, g.energy_list), kTol)
      << std::setprecision(17) << "E_pol (list) drifted: got " << list.energy;
  EXPECT_LE(rel_err(recursive.energy, g.energy_recursive), kTol)
      << std::setprecision(17) << "E_pol (recursive) drifted: got " << recursive.energy;
  EXPECT_LE(rel_err(atom_based.energy, g.energy_atom_based), kTol)
      << std::setprecision(17) << "E_pol (kAtomBased, P = 7) drifted: got "
      << atom_based.energy;
  EXPECT_LE(rel_err(born.front(), g.born_first), kTol);
  EXPECT_LE(rel_err(born[born.size() / 2], g.born_middle), kTol);
  EXPECT_LE(rel_err(born.back(), g.born_last), kTol);
  EXPECT_LE(rel_err(mean, g.born_mean), kTol);

  // Other tiers reassociate the near kernels' sums, so only the recording
  // tier is held to the bit.
  if (!kRecordingBuild || std::string(simd_dispatch_name()) != kRecordedTier) return;
  EXPECT_EQ(list.energy, g.energy_list);
  EXPECT_EQ(recursive.energy, g.energy_recursive);
  EXPECT_EQ(atom_based.energy, g.energy_atom_based);
  EXPECT_EQ(born.front(), g.born_first);
  EXPECT_EQ(born[born.size() / 2], g.born_middle);
  EXPECT_EQ(born.back(), g.born_last);
  EXPECT_EQ(mean, g.born_mean);
}

INSTANTIATE_TEST_SUITE_P(Molecules, GoldenEnergyTest, ::testing::ValuesIn(kGolden),
                         [](const ::testing::TestParamInfo<GoldenCase>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace gbpol
