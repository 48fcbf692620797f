// Cross-rank balance layer (core/balance.hpp) and the Engine's canonical
// chunk-fold path: chunk geometry, deterministic steal planning, and the
// 0-ulp policy equivalence the fold guarantees — clean, under fault
// schedules, and across a kill/restart resume (ISSUE 5 acceptance matrix).
#include "core/balance.hpp"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "molecule/generate.hpp"
#include "mpisim/faults.hpp"
#include "surface/quadrature.hpp"
#include "test_helpers.hpp"

namespace gbpol {
namespace {

using mpisim::FaultPlan;

// --- chunk geometry -------------------------------------------------------

TEST(ChunkPlanTest, ChunksTileItemsExactly) {
  for (const std::uint32_t n : {1u, 7u, 64u, 1000u}) {
    for (const std::uint32_t chunk_items : {1u, 3u, 64u, 2000u}) {
      const ChunkPlan plan = make_chunk_plan(n, 4, chunk_items);
      ASSERT_GT(plan.n_chunks, 0u);
      std::uint32_t cursor = 0;
      for (std::uint32_t c = 0; c < plan.n_chunks; ++c) {
        const Segment s = plan.chunk_range(c);
        EXPECT_EQ(s.lo, cursor);
        EXPECT_GT(s.count(), 0u);
        EXPECT_LE(s.count(), plan.chunk_items);
        cursor = s.hi;
      }
      EXPECT_EQ(cursor, n);
    }
  }
  EXPECT_EQ(make_chunk_plan(0, 4, 8).n_chunks, 0u);
}

TEST(ChunkPlanTest, AutoSizeDependsOnlyOnJobShape) {
  // chunk_items == 0 picks ceil(n / (8 * ranks)) — a pure function of
  // (items, ranks), never of the balance policy.
  const ChunkPlan plan = make_chunk_plan(1024, 8, 0);
  EXPECT_EQ(plan.chunk_items, 16u);
  EXPECT_EQ(plan.n_chunks, 64u);
  const ChunkPlan one_rank = make_chunk_plan(1024, 1, 0);
  EXPECT_EQ(one_rank.chunk_items, 128u);
  // Fewer items than 8*ranks still yields unit chunks, not zero-size ones.
  EXPECT_EQ(make_chunk_plan(5, 8, 0).chunk_items, 1u);
}

// --- planning -------------------------------------------------------------

// Every chunk appears in exactly one rank's order, exactly once.
void expect_permutation(const BalanceAssignment& a, std::uint32_t n_chunks) {
  std::vector<int> seen(n_chunks, 0);
  for (const auto& order : a.order)
    for (const std::uint32_t c : order) {
      ASSERT_LT(c, n_chunks);
      ++seen[c];
    }
  for (std::uint32_t c = 0; c < n_chunks; ++c)
    EXPECT_EQ(seen[c], 1) << "chunk " << c;
  ASSERT_EQ(a.initial_rank.size(), n_chunks);
  for (const int r : a.initial_rank) {
    EXPECT_GE(r, 0);
    EXPECT_LT(r, a.ranks());
  }
}

double makespan(const BalanceAssignment& a, std::span<const double> costs) {
  double worst = 0.0;
  for (const auto& order : a.order) {
    double sum = 0.0;
    for (const std::uint32_t c : order) sum += costs[c];
    worst = std::max(worst, sum);
  }
  return worst;
}

std::vector<double> skewed_costs(std::uint32_t n) {
  // Front-loaded: the first quarter of the chunks holds most of the cost,
  // the shape the static even split handles worst.
  std::vector<double> costs(n);
  for (std::uint32_t c = 0; c < n; ++c) costs[c] = c < n / 4 ? 9.0 : 1.0;
  return costs;
}

TEST(PlanBalanceTest, EveryPolicyCoversEveryChunkOnce) {
  const std::vector<double> costs = skewed_costs(64);
  for (const BalancePolicy policy :
       {BalancePolicy::kStatic, BalancePolicy::kCostModel, BalancePolicy::kSteal}) {
    const BalanceAssignment a = plan_balance(costs, 5, policy);
    ASSERT_EQ(a.ranks(), 5);
    expect_permutation(a, 64);
  }
}

TEST(PlanBalanceTest, CostModelBeatsStaticOnSkewedCosts) {
  const std::vector<double> costs = skewed_costs(64);
  const BalanceAssignment even = plan_balance(costs, 8, BalancePolicy::kStatic);
  const BalanceAssignment cost = plan_balance(costs, 8, BalancePolicy::kCostModel);
  EXPECT_TRUE(even.steals.empty());
  EXPECT_TRUE(cost.steals.empty());
  EXPECT_LT(makespan(cost, costs), makespan(even, costs));
}

TEST(PlanBalanceTest, StealPlanIsDeterministicAndWellFormed) {
  // The steal simulation starts from the cost split, so a schedule only
  // steals when the greedy split itself came out lopsided (a hot chunk
  // straddling a boundary, a count-heavy cheap tail, ...). Check several
  // skew patterns: every plan must be well-formed and deterministic, and at
  // least one pattern must actually produce steals.
  std::vector<std::vector<double>> patterns;
  {
    // Cheap ones with a heavy tail: the last ranks end up chunk-poor.
    std::vector<double> costs(28, 1.0);
    for (int i = 0; i < 4; ++i) costs.push_back(10.0);
    patterns.push_back(costs);
  }
  {
    // Sawtooth: period-7 spikes across 64 chunks.
    std::vector<double> costs(64, 1.0);
    for (std::size_t c = 0; c < costs.size(); c += 7) costs[c] = 25.0;
    patterns.push_back(costs);
  }
  {
    // Geometric front-load.
    std::vector<double> costs;
    double cost = 64.0;
    for (int c = 0; c < 40; ++c, cost = std::max(1.0, cost * 0.8))
      costs.push_back(cost);
    patterns.push_back(costs);
  }

  bool any_steals = false;
  for (const std::vector<double>& costs : patterns) {
    for (const int ranks : {4, 6}) {
      const BalanceAssignment a = plan_balance(costs, ranks, BalancePolicy::kSteal);
      expect_permutation(a, static_cast<std::uint32_t>(costs.size()));
      const BalanceAssignment b = plan_balance(costs, ranks, BalancePolicy::kSteal);
      ASSERT_EQ(a.order, b.order);  // pure function of the inputs
      ASSERT_EQ(a.steals.size(), b.steals.size());
      std::uint64_t granted = 0;
      for (const StealEvent& ev : a.steals) {
        EXPECT_NE(ev.thief, ev.victim);
        EXPECT_GE(ev.thief, 0);
        EXPECT_LT(ev.thief, ranks);
        EXPECT_GE(ev.victim_remaining, 2u);  // victims need >= 2 queued chunks
        EXPECT_EQ(ev.granted, ev.victim_remaining / 2);  // half the queued tail
        EXPECT_GT(ev.granted, 0u);
        granted += ev.granted;
      }
      // Every granted chunk executes on a non-initial rank (and nothing
      // else does, since only steals move work).
      std::uint64_t migrated = 0;
      for (int r = 0; r < a.ranks(); ++r) migrated += a.migrated(r);
      EXPECT_EQ(migrated, granted);
      any_steals = any_steals || !a.steals.empty();
    }
  }
  EXPECT_TRUE(any_steals);
}

TEST(PlanBalanceTest, SingleChunkGoesToOneRankWithNoSteals) {
  const std::vector<double> costs = {3.0};
  for (const BalancePolicy policy :
       {BalancePolicy::kStatic, BalancePolicy::kCostModel, BalancePolicy::kSteal}) {
    const BalanceAssignment a = plan_balance(costs, 4, policy);
    expect_permutation(a, 1);
    EXPECT_TRUE(a.steals.empty());  // a 1-chunk victim is never eligible
  }
}

TEST(PlanBalanceTest, MoreRanksThanChunksLeavesSurplusRanksIdle) {
  const std::vector<double> costs = {1.0, 2.0, 3.0};
  for (const BalancePolicy policy :
       {BalancePolicy::kStatic, BalancePolicy::kCostModel, BalancePolicy::kSteal}) {
    const BalanceAssignment a = plan_balance(costs, 8, policy);
    ASSERT_EQ(a.ranks(), 8);
    expect_permutation(a, 3);
    std::size_t idle = 0;
    for (const auto& order : a.order) idle += order.empty();
    EXPECT_GE(idle, 5u);
  }
}

TEST(PlanBalanceTest, AllCostInOneChunkBoundsEveryMakespan) {
  std::vector<double> costs(32, 0.0);
  costs[17] = 100.0;
  for (const BalancePolicy policy :
       {BalancePolicy::kStatic, BalancePolicy::kCostModel, BalancePolicy::kSteal}) {
    const BalanceAssignment a = plan_balance(costs, 4, policy);
    expect_permutation(a, 32);
    // One indivisible hot chunk: no policy can do better (or worse) than
    // the chunk itself.
    EXPECT_EQ(makespan(a, costs), 100.0);
  }
}

TEST(PlanBalanceTest, ZeroCostsDegradeToEvenSplit) {
  const std::vector<double> costs(40, 0.0);
  const BalanceAssignment cost = plan_balance(costs, 4, BalancePolicy::kCostModel);
  expect_permutation(cost, 40);
  for (int r = 0; r < 4; ++r) {
    const Segment s = even_segment(40, 4, r);
    ASSERT_EQ(cost.order[static_cast<std::size_t>(r)].size(), s.count());
    for (std::uint32_t i = 0; i < s.count(); ++i)
      EXPECT_EQ(cost.order[static_cast<std::size_t>(r)][i], s.lo + i);
  }
}

TEST(ChunkLedgerTest, TracksCompletionAndOwnership) {
  ChunkLedger ledger(5);
  EXPECT_EQ(ledger.size(), 5u);
  EXPECT_EQ(ledger.pending(), (std::vector<std::uint32_t>{0, 1, 2, 3, 4}));
  ledger.mark_done(1, 2);
  ledger.mark_done(4, 0);
  EXPECT_TRUE(ledger.done(1));
  EXPECT_FALSE(ledger.done(0));
  EXPECT_EQ(ledger.owner(1), 2);
  EXPECT_EQ(ledger.owner(0), -1);
  EXPECT_EQ(ledger.pending(), (std::vector<std::uint32_t>{0, 2, 3}));
}

// --- end-to-end 0-ulp policy equivalence ---------------------------------

class BalancePolicyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Skewed layout (bound complex + distant fragment) so the cost split and
    // the steal schedule actually differ from the even split.
    Molecule mol = molgen::bound_complex(900, 977);
    Molecule fragment = molgen::synthetic_protein(120, 978);
    fragment.translate(Vec3{90, 60, 0});
    mol.append(fragment);
    quad_ = new surface::SurfaceQuadrature(surface::molecular_surface_quadrature(
        mol, {.grid_spacing = 1.5, .dunavant_degree = 2, .kappa = 2.3}));
    prep_ = new Prepared(Prepared::build(mol, *quad_, 16));
  }
  static void TearDownTestSuite() {
    delete prep_;
    delete quad_;
  }

  static RunOptions balanced_options(int ranks, BalancePolicy policy) {
    RunOptions options = distributed_options(ranks);
    options.balance = policy;
    return options;
  }

  static RunResult run(const RunOptions& options) {
    return Engine(*prep_, ApproxParams{}, GBConstants{}).run(options);
  }

  static void expect_bit_identical(const RunResult& a, const RunResult& b) {
    ASSERT_EQ(a.energy, b.energy);
    ASSERT_EQ(a.born_sorted.size(), b.born_sorted.size());
    for (std::size_t i = 0; i < a.born_sorted.size(); ++i)
      ASSERT_EQ(a.born_sorted[i], b.born_sorted[i]) << "born slot " << i;
  }

  static surface::SurfaceQuadrature* quad_;
  static Prepared* prep_;
};
surface::SurfaceQuadrature* BalancePolicyTest::quad_ = nullptr;
Prepared* BalancePolicyTest::prep_ = nullptr;

TEST_F(BalancePolicyTest, PoliciesAreBitIdenticalOnGoldenMolecule) {
  for (const int ranks : {3, 5, 8}) {
    SCOPED_TRACE("ranks=" + std::to_string(ranks));
    const RunResult baseline = run(balanced_options(ranks, BalancePolicy::kStatic));
    ASSERT_NE(baseline.energy, 0.0);
    const RunResult cost = run(balanced_options(ranks, BalancePolicy::kCostModel));
    const RunResult steal = run(balanced_options(ranks, BalancePolicy::kSteal));
    expect_bit_identical(cost, baseline);
    expect_bit_identical(steal, baseline);
    // The baseline never migrates; the accounting fields must say so.
    EXPECT_EQ(baseline.migrated_chunks, 0u);
    EXPECT_EQ(baseline.steal_grants, 0u);
  }
}

TEST_F(BalancePolicyTest, ChunkGranularityIsPartOfTheContract) {
  // Different chunk sizes legitimately change the fold (different partial
  // boundaries); the SAME chunk size must stay bit-identical across
  // policies. Both halves of that contract are checked here.
  RunOptions coarse = balanced_options(5, BalancePolicy::kStatic);
  coarse.balance_chunk_leaves = 4;
  RunOptions coarse_steal = balanced_options(5, BalancePolicy::kSteal);
  coarse_steal.balance_chunk_leaves = 4;
  const RunResult a = run(coarse);
  const RunResult b = run(coarse_steal);
  expect_bit_identical(b, a);
  RunOptions fine = coarse;
  fine.balance_chunk_leaves = 1;
  // Not asserted unequal (the fold could coincide), but it must still match
  // its own-steal twin.
  RunOptions fine_steal = coarse_steal;
  fine_steal.balance_chunk_leaves = 1;
  expect_bit_identical(run(fine_steal), run(fine));
}

TEST_F(BalancePolicyTest, StealStaysBitIdenticalUnderFaultSchedules) {
  const int ranks = 5;
  const RunResult baseline = run(balanced_options(ranks, BalancePolicy::kStatic));
  for (const std::uint64_t seed : {11u, 12u, 13u, 14u}) {
    FaultPlan plan;
    // The balanced path runs (at least) two token collectives: the Born
    // phase sync and the Epol phase sync — seq 0 and 1 always fire.
    plan.deaths.push_back(
        {.rank = static_cast<int>(seed % ranks), .collective_seq = seed % 2});
    for (const BalancePolicy policy :
         {BalancePolicy::kCostModel, BalancePolicy::kSteal}) {
      RunOptions options = balanced_options(ranks, policy);
      options.faults = plan;
      const RunResult faulty = run(options);
      SCOPED_TRACE("seed=" + std::to_string(seed));
      expect_bit_identical(faulty, baseline);
      EXPECT_TRUE(faulty.degraded);
    }
  }
}

TEST_F(BalancePolicyTest, StealResumesBitExactlyAfterKillRestart) {
  const std::string dir = testing::temp_path("gbpol_balance_ckpt");
  const RunResult clean = run(balanced_options(5, BalancePolicy::kSteal));
  for (const std::uint64_t seed : {0u, 1u, 2u, 3u}) {
    const std::string seed_dir = dir + "_" + std::to_string(seed);
    std::filesystem::remove_all(seed_dir);
    RunOptions options = balanced_options(5, BalancePolicy::kSteal);
    options.checkpoint.dir = seed_dir;
    options.checkpoint.every_k_chunks = 1;
    options.checkpoint.every_n_collectives = 1;
    options.kill.armed = true;
    options.kill.rank = static_cast<int>(seed % 5);
    // Born / Epol chunk loops (collective 1 is the radii allgatherv).
    options.kill.collective_seq = seed % 2 == 0 ? 0 : 2;
    options.kill.tick = 1 + seed;
    const RunResult killed = run(options);
    SCOPED_TRACE("seed=" + std::to_string(seed));
    if (killed.killed) {
      options.kill = {};
      options.checkpoint.resume = true;
      const RunResult resumed = run(options);
      EXPECT_TRUE(resumed.resumed);
      expect_bit_identical(resumed, clean);
    } else {
      expect_bit_identical(killed, clean);
    }
    std::filesystem::remove_all(seed_dir);
  }
}

}  // namespace
}  // namespace gbpol
