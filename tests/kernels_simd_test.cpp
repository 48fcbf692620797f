// SIMD dispatch layer checks:
//  * the tier rule — each tier resolves only when its TU is compiled in and
//    the CPU supports it; GBPOL_SIMD=off forces SoA, GBPOL_SIMD=avx2 pins the
//    AVX2 tier (also on AVX-512 hosts), "on" picks the best tier,
//  * every available tier's primitive probes meet their accuracy budgets,
//  * edge shapes — every tier's four kernels called directly against the SoA
//    kernels on 1..17 points per side (masked v tails, leftover u-rows,
//    partial 8-atom Born blocks), bounded relative to sum |term|,
//  * full-pipeline dispatch equivalence — the same molecules through each
//    available tier and the forced-SoA path agree to 1e-10 (exact kernels)
//    resp. 1e-8 (approx-math kernels, where fast_exp's truncation boundary
//    can flip a lane between the scalar and vector constructions), and the
//    AVX-512 tier agrees with the AVX2 tier to 1e-10,
//  * tile-size invariance — the L2 tile index only partitions the canonical
//    entry order, so any tile budget yields bit-identical energies within a
//    dispatch path.
#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/approx_math.hpp"
#include "core/born_octree.hpp"
#include "core/engine.hpp"
#include "core/epol_octree.hpp"
#include "core/interaction_lists.hpp"
#include "core/kernels_simd.hpp"
#include "molecule/generate.hpp"
#include "support/rng.hpp"
#include "surface/quadrature.hpp"

namespace gbpol {
namespace {

// The dispatch cache is process-wide, so the scoped guards below must not
// run concurrently with other tests in this binary (gtest runs tests
// sequentially by default). Each restores what it found, so a preset's
// GBPOL_SIMD survives the binary.

// Sets GBPOL_SIMD for the enclosing scope and re-resolves the dispatch.
class ScopedSimdEnv {
 public:
  explicit ScopedSimdEnv(const char* value) {
    if (const char* old = std::getenv("GBPOL_SIMD")) {
      saved_ = old;
      had_ = true;
    }
    setenv("GBPOL_SIMD", value, /*overwrite=*/1);
    simd_dispatch_refresh();
  }
  ~ScopedSimdEnv() {
    if (had_)
      setenv("GBPOL_SIMD", saved_.c_str(), /*overwrite=*/1);
    else
      unsetenv("GBPOL_SIMD");
    simd_dispatch_refresh();
  }

 private:
  std::string saved_;
  bool had_ = false;
};

// Pins the dispatch through the explicit override (RunOptions::simd's
// plumbing) for the enclosing scope.
class ScopedSimdOverride {
 public:
  explicit ScopedSimdOverride(const char* value) : saved_(simd_override()) {
    simd_set_override(value);
  }
  ~ScopedSimdOverride() { simd_set_override(saved_); }

 private:
  std::string saved_;
};

constexpr SimdDispatch kSimdTiers[] = {SimdDispatch::kAvx2, SimdDispatch::kAvx512};

std::vector<SimdDispatch> available_tiers() {
  std::vector<SimdDispatch> tiers;
  for (const SimdDispatch t : kSimdTiers)
    if (simd_tier_available(t)) tiers.push_back(t);
  return tiers;
}

// The override value that selects `tier`: the widest tier is only reachable
// as the best one ("on"); there is no per-tier override beyond "avx2".
const char* request_for(SimdDispatch tier) {
  switch (tier) {
    case SimdDispatch::kSoA: return "off";
    case SimdDispatch::kAvx2: return "avx2";
    case SimdDispatch::kAvx512: return "on";
  }
  return "auto";
}

double rel_err(double got, double want) {
  return std::abs(got - want) / std::max(1.0, std::abs(want));
}

TEST(SimdDispatch, EnvOverrideForcesSoA) {
  ScopedSimdEnv off("off");
  EXPECT_EQ(simd_dispatch(), SimdDispatch::kSoA);
  EXPECT_EQ(simd_kernel_table(), nullptr);
  EXPECT_STREQ(simd_dispatch_name(), "soa");
}

TEST(SimdDispatch, EnvAvx2PinsAvx2Tier) {
  ScopedSimdEnv avx2("avx2");
  const SimdDispatch want = simd_tier_available(SimdDispatch::kAvx2)
                                ? SimdDispatch::kAvx2
                                : SimdDispatch::kSoA;
  EXPECT_EQ(simd_dispatch(), want);
  // The explicit override still wins over the environment.
  const std::vector<SimdDispatch> tiers = available_tiers();
  ScopedSimdOverride on("on");
  EXPECT_EQ(simd_dispatch(), tiers.empty() ? SimdDispatch::kSoA : tiers.back());
}

TEST(SimdDispatch, EachTierResolvesOnlyWhenCompiledAndSupported) {
  EXPECT_TRUE(simd_tier_available(SimdDispatch::kSoA));
  for (const SimdDispatch t : kSimdTiers) {
    SCOPED_TRACE(simd_dispatch_name(t));
    EXPECT_EQ(simd_tier_available(t), simd_kernels_compiled(t) && simd_cpu_supported(t));
    EXPECT_EQ(simd_kernels_compiled(t), simd_kernel_table(t) != nullptr);
  }
  // An AVX-512 kernel TU is never compiled without the AVX2 one (its approx
  // kernel is the AVX2 one), and AVX-512 support implies AVX2 support.
  if (simd_kernels_compiled(SimdDispatch::kAvx512)) {
    EXPECT_TRUE(simd_kernels_compiled(SimdDispatch::kAvx2));
  }
  if (simd_cpu_supported(SimdDispatch::kAvx512)) {
    EXPECT_TRUE(simd_cpu_supported(SimdDispatch::kAvx2));
  }

  const std::vector<SimdDispatch> tiers = available_tiers();
  const SimdDispatch best = tiers.empty() ? SimdDispatch::kSoA : tiers.back();
  {
    ScopedSimdOverride on("on");
    EXPECT_EQ(simd_dispatch(), best);
    EXPECT_TRUE(simd_tier_available(simd_dispatch()));
    EXPECT_EQ(simd_kernel_table() != nullptr, best != SimdDispatch::kSoA);
  }
  {
    ScopedSimdOverride avx2("avx2");
    EXPECT_EQ(simd_dispatch(), simd_tier_available(SimdDispatch::kAvx2)
                                   ? SimdDispatch::kAvx2
                                   : SimdDispatch::kSoA);
  }
  {
    ScopedSimdOverride off("off");
    EXPECT_EQ(simd_dispatch(), SimdDispatch::kSoA);
    EXPECT_EQ(simd_kernel_table(), nullptr);
  }
}

TEST(SimdDispatch, ProbeAccuracyMeetsBudget) {
  EXPECT_LT(simd_rsqrt_max_rel_error(SimdDispatch::kSoA, 1e-2, 1e4, 11), 0.0);
  const std::vector<SimdDispatch> tiers = available_tiers();
  if (tiers.empty()) GTEST_SKIP() << "no SIMD tier available on this host";
  for (const SimdDispatch t : tiers) {
    SCOPED_TRACE(simd_dispatch_name(t));
    const double rsqrt_err = simd_rsqrt_max_rel_error(t, 1e-2, 1e4, 4001);
    const double exp_err = simd_exp_max_rel_error(t, -40.0, 0.0, 4001);
    // rsqrt: estimate + 2 Newton converges to ~3e-14 (AVX2) or rounding
    // (AVX-512); exp: Cephes rational (AVX2) or degree-12 polynomial
    // (AVX-512), good to a few ulp. Both budgets sit well under the 1e-10
    // drift contract.
    EXPECT_GE(rsqrt_err, 0.0);
    EXPECT_LT(rsqrt_err, 1e-13);
    EXPECT_GE(exp_err, 0.0);
    EXPECT_LT(exp_err, 1e-12);
  }
}

// ---- edge shapes: each tier's kernels against the SoA kernels --------------

constexpr std::uint32_t kMaxSide = 17;

struct EdgePoints {
  std::vector<double> x, y, z, w_x, w_y, w_z, charge, born;
};

EdgePoints edge_points(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  EdgePoints p;
  for (std::size_t i = 0; i < n; ++i) {
    p.x.push_back(rng.uniform(0.0, 6.0));
    p.y.push_back(rng.uniform(0.0, 6.0));
    p.z.push_back(rng.uniform(0.0, 6.0));
    p.w_x.push_back(rng.uniform(-0.3, 0.3));
    p.w_y.push_back(rng.uniform(-0.3, 0.3));
    p.w_z.push_back(rng.uniform(-0.3, 0.3));
    p.charge.push_back(rng.uniform(-1.0, 1.0));
    p.born.push_back(rng.uniform(1.0, 3.0));
  }
  return p;
}

// sum |q_u q_v / f_GB| over the block: the scale the kernel error is
// measured against.
template <bool kApproxMath>
double epol_abs_scale(const EdgePoints& a, std::uint32_t u_begin, std::uint32_t u_end,
                      std::uint32_t v_begin, std::uint32_t v_end) {
  double scale = 0.0;
  for (std::uint32_t u = u_begin; u < u_end; ++u)
    for (std::uint32_t v = v_begin; v < v_end; ++v) {
      const double dx = a.x[v] - a.x[u], dy = a.y[v] - a.y[u], dz = a.z[v] - a.z[u];
      scale += std::abs(a.charge[u] * a.charge[v] *
                        epol_inv_fgb<kApproxMath>(dx * dx + dy * dy + dz * dz,
                                                  a.born[u] * a.born[v]));
    }
  return scale;
}

template <bool kApproxMath>
void expect_epol_edges_match(SimdKernelTable::EpolNearFn fn, const EdgePoints& a) {
  const auto n = static_cast<std::uint32_t>(a.x.size());
  const auto check = [&](std::uint32_t ub, std::uint32_t ue, std::uint32_t vb,
                         std::uint32_t ve) {
    const double got =
        fn(a.x.data(), a.y.data(), a.z.data(), a.charge.data(), a.born.data(), ub, ue, vb, ve);
    const double want = epol_near_soa<kApproxMath>(a.x.data(), a.y.data(), a.z.data(),
                                                   a.charge.data(), a.born.data(), ub, ue,
                                                   vb, ve);
    const double scale = epol_abs_scale<kApproxMath>(a, ub, ue, vb, ve);
    ASSERT_LE(std::abs(got - want), 1e-12 * scale)
        << "u [" << ub << "," << ue << ") v [" << vb << "," << ve << ")";
  };
  for (std::uint32_t nu = 1; nu <= kMaxSide; ++nu) {
    for (std::uint32_t nv = 1; nv <= kMaxSide; ++nv) {
      // Disjoint ranges, the v range ending at the end of the arrays so the
      // masked tail reads up to the allocation's edge.
      check(1, 1 + nu, n - nv, n);
    }
    // Self pair (a leaf against itself): includes the r2 = 0 diagonal.
    check(0, nu, 0, nu);
  }
}

// Born near kernel over [q 0, nq) x [atoms na_total - na, na_total): the
// atom range ends at the end of the arrays, and atom_s starts nonzero so the
// accumulate (+=) and the untouched-outside-range contract are both checked.
void expect_born_edges_match(SimdKernelTable::BornNearFn fn, int power,
                             const EdgePoints& q, EdgePoints atoms) {
  const auto na_total = static_cast<std::uint32_t>(atoms.x.size());
  // One quadrature point sits exactly on the last atom: its d2 = 0 term must
  // be dropped by the guard in both kernels.
  atoms.x.back() = q.x[0];
  atoms.y.back() = q.y[0];
  atoms.z.back() = q.z[0];
  for (std::uint32_t nq = 1; nq <= kMaxSide; ++nq) {
    for (std::uint32_t na = 1; na <= kMaxSide; ++na) {
      const std::uint32_t ab = na_total - na;
      std::vector<double> got(na_total, 0.5), want(na_total, 0.5);
      fn(q.x.data(), q.y.data(), q.z.data(), q.w_x.data(), q.w_y.data(), q.w_z.data(), 0,
         nq, atoms.x.data(), atoms.y.data(), atoms.z.data(), ab, na_total, got.data());
      const auto soa = power == 6 ? &born_near_soa<6> : &born_near_soa<4>;
      soa(q.x.data(), q.y.data(), q.z.data(), q.w_x.data(), q.w_y.data(), q.w_z.data(), 0,
          nq, atoms.x.data(), atoms.y.data(), atoms.z.data(), ab, na_total, want.data());
      for (std::uint32_t a = 0; a < na_total; ++a) {
        if (a < ab) {
          ASSERT_EQ(got[a], 0.5) << "atom " << a << " outside the range was written";
          continue;
        }
        double scale = 0.5;
        for (std::uint32_t i = 0; i < nq; ++i) {
          const double dx = q.x[i] - atoms.x[a], dy = q.y[i] - atoms.y[a],
                       dz = q.z[i] - atoms.z[a];
          const double d2 = dx * dx + dy * dy + dz * dz;
          if (d2 <= 0.0) continue;
          const double wdot = q.w_x[i] * dx + q.w_y[i] * dy + q.w_z[i] * dz;
          scale += std::abs(wdot) / std::pow(d2, power / 2);
        }
        ASSERT_LE(std::abs(got[a] - want[a]), 1e-12 * scale)
            << "nq " << nq << " na " << na << " atom " << a;
      }
    }
  }
}

TEST(SimdKernelEdges, EveryTierMatchesSoAOnShortRanges) {
  const std::vector<SimdDispatch> tiers = available_tiers();
  if (tiers.empty()) GTEST_SKIP() << "no SIMD tier available on this host";
  const EdgePoints atoms = edge_points(kMaxSide + 1, 7);
  const EdgePoints q = edge_points(kMaxSide, 8);
  for (const SimdDispatch t : tiers) {
    SCOPED_TRACE(simd_dispatch_name(t));
    const SimdKernelTable* table = simd_kernel_table(t);
    ASSERT_NE(table, nullptr);
    expect_epol_edges_match<false>(table->epol_near_exact, atoms);
    expect_epol_edges_match<true>(table->epol_near_approx, atoms);
    expect_born_edges_match(table->born_near_r6, 6, q, atoms);
    expect_born_edges_match(table->born_near_r4, 4, q, atoms);
  }
}

// ---- full pipeline ----------------------------------------------------------

struct PipelineResult {
  double energy = 0.0;
  std::vector<double> born;
};

PipelineResult run_pipeline(const Prepared& prep, bool approx_math) {
  ApproxParams params;
  params.approx_math = approx_math;
  const Engine engine(prep, params, GBConstants{});
  const RunResult r = engine.run(serial_options(TraversalMode::kList));
  return {r.energy, r.born_sorted};
}

class SimdEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const Molecule mol = molgen::synthetic_protein(900, 31);
    const auto quad = surface::molecular_surface_quadrature(
        mol, {.grid_spacing = 1.5, .dunavant_degree = 2, .kappa = 2.3});
    prep_ = new Prepared(Prepared::build(mol, quad, 16));
  }
  static void TearDownTestSuite() {
    delete prep_;
    prep_ = nullptr;
  }
  static const Prepared* prep_;
};

const Prepared* SimdEquivalenceTest::prep_ = nullptr;

PipelineResult run_pipeline_on(const Prepared& prep, bool approx_math, SimdDispatch tier) {
  ScopedSimdOverride pin(request_for(tier));
  EXPECT_EQ(simd_dispatch(), tier);
  return run_pipeline(prep, approx_math);
}

void expect_close(const PipelineResult& got, const PipelineResult& want, double tol) {
  EXPECT_LE(rel_err(got.energy, want.energy), tol);
  ASSERT_EQ(got.born.size(), want.born.size());
  for (std::size_t i = 0; i < got.born.size(); ++i)
    ASSERT_LE(rel_err(got.born[i], want.born[i]), tol) << "born[" << i << "]";
}

TEST_F(SimdEquivalenceTest, ExactPathMatchesSoAWithin1e10) {
  const std::vector<SimdDispatch> tiers = available_tiers();
  if (tiers.empty()) GTEST_SKIP() << "no SIMD tier available on this host";
  const PipelineResult soa = run_pipeline_on(*prep_, false, SimdDispatch::kSoA);
  for (const SimdDispatch t : tiers) {
    SCOPED_TRACE(simd_dispatch_name(t));
    expect_close(run_pipeline_on(*prep_, false, t), soa, 1e-10);
  }
}

TEST_F(SimdEquivalenceTest, ApproxPathMatchesSoAWithin1e8) {
  const std::vector<SimdDispatch> tiers = available_tiers();
  if (tiers.empty()) GTEST_SKIP() << "no SIMD tier available on this host";
  // fast_exp truncates kScale*x + kBias to an integer; the scalar and vector
  // constructions can land on opposite sides of a truncation boundary, so
  // the approx path gets a looser (but still tight) budget.
  const PipelineResult soa = run_pipeline_on(*prep_, true, SimdDispatch::kSoA);
  for (const SimdDispatch t : tiers) {
    SCOPED_TRACE(simd_dispatch_name(t));
    expect_close(run_pipeline_on(*prep_, true, t), soa, 1e-8);
  }
}

TEST_F(SimdEquivalenceTest, Avx512MatchesAvx2Within1e10) {
  if (!simd_tier_available(SimdDispatch::kAvx512) ||
      !simd_tier_available(SimdDispatch::kAvx2))
    GTEST_SKIP() << "AVX-512 and AVX2 tiers not both available on this host";
  expect_close(run_pipeline_on(*prep_, false, SimdDispatch::kAvx512),
               run_pipeline_on(*prep_, false, SimdDispatch::kAvx2), 1e-10);
}

// Rebuilding the tile index with a pathologically small budget must not
// change a single bit of the result: tiles only partition the canonical
// ascending entry order that the folds already follow.
TEST_F(SimdEquivalenceTest, TileSizeInvarianceIsBitExact) {
  const Prepared& prep = *prep_;
  ApproxParams params;
  const BornSolver born_solver(prep, params);
  const auto n_qleaves = static_cast<std::uint32_t>(prep.q_tree.leaves().size());
  InteractionLists blists = born_solver.build_lists(0, n_qleaves);
  BornAccumulator acc = born_solver.make_accumulator();
  born_solver.accumulate_lists(blists, acc);
  std::vector<double> born(prep.num_atoms());
  born_solver.push_to_atoms(acc, 0, static_cast<std::uint32_t>(prep.num_atoms()), born);

  const EpolSolver epol_solver(prep, born, params, GBConstants{});
  const auto n_aleaves = static_cast<std::uint32_t>(prep.atoms_tree.leaves().size());
  InteractionLists elists = epol_solver.build_lists(0, n_aleaves);
  const double e_default = epol_solver.energy_from_lists(elists);
  const std::size_t default_tiles = elists.near_tile_start.size();

  // Tiny budget: one entry per tile at the extreme.
  const InteractionLists::TileCost cost{40, 40, 200};
  elists.build_tiles(prep.atoms_tree, prep.atoms_tree, cost, /*budget=*/1);
  EXPECT_GT(elists.near_tile_start.size(), default_tiles);
  EXPECT_EQ(epol_solver.energy_from_lists(elists), e_default);

  // Huge budget: a single tile.
  elists.build_tiles(prep.atoms_tree, prep.atoms_tree, cost,
                     /*budget=*/std::size_t(1) << 40);
  EXPECT_EQ(elists.near_tile_start.size(), 2u);  // {0, near.size()}
  EXPECT_EQ(epol_solver.energy_from_lists(elists), e_default);

  // Same invariance for the Born accumulation.
  BornAccumulator acc_default = born_solver.make_accumulator();
  born_solver.accumulate_lists(blists, acc_default);
  blists.build_tiles(prep.atoms_tree, prep.q_tree, cost, /*budget=*/1);
  BornAccumulator acc_tiny = born_solver.make_accumulator();
  born_solver.accumulate_lists(blists, acc_tiny);
  const auto flat_default = acc_default.flat();
  const auto flat_tiny = acc_tiny.flat();
  ASSERT_EQ(flat_default.size(), flat_tiny.size());
  for (std::size_t i = 0; i < flat_default.size(); ++i)
    ASSERT_EQ(flat_default[i], flat_tiny[i]) << "accumulator slot " << i;
}

}  // namespace
}  // namespace gbpol
