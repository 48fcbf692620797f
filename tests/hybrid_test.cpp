// OCT_MPI+CILK on the canonical chunk fold: P ranks x p pool threads cut the
// same chunks as (P*p) one-thread ranks and fold them in the same order, so
// every hybrid shape — OCT_CILK's 1 x p, either distribution, every balance
// policy, a death at each collective, a seeded corruption schedule, a
// kill/restart — answers to the bit what (P*p) x 1 answers, run after run.
#include <array>
#include <filesystem>
#include <map>
#include <string>

#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "molecule/suite.hpp"
#include "test_helpers.hpp"

namespace gbpol {
namespace {

// P ranks x p threads per rank.
constexpr std::array<std::array<int, 2>, 6> kShapes = {
    {{1, 2}, {1, 3}, {2, 2}, {2, 3}, {3, 2}, {3, 3}}};

class HybridTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    fixture_ = new testing::Fixture(testing::make_fixture(300));
  }
  static void TearDownTestSuite() { delete fixture_; }

  static RunResult run(const RunOptions& options) {
    return Engine(fixture_->prep).run(options);
  }
  // The (P*p) x 1 run every P x p shape must match to the bit.
  static const RunResult& one_thread(int workers) {
    static std::map<int, RunResult> twins;
    auto it = twins.find(workers);
    if (it == twins.end()) it = twins.emplace(workers, run(distributed_options(workers))).first;
    return it->second;
  }
  static void expect_matches_one_thread(const RunResult& r, int P, int p) {
    EXPECT_FALSE(r.killed);
    EXPECT_EQ(r.threads_per_rank, p);
    EXPECT_EQ(r.energy, one_thread(P * p).energy);
    EXPECT_EQ(r.born_sorted, one_thread(P * p).born_sorted);
  }
  static std::string shape(int P, int p, DataDistribution dist) {
    return std::to_string(P) + "x" + std::to_string(p) +
           (dist == DataDistribution::kOwned ? " owned" : " replicated");
  }

  static testing::Fixture* fixture_;
};
testing::Fixture* HybridTest::fixture_ = nullptr;

TEST_F(HybridTest, EveryDistributionAndPolicyMatchesOneThreadRanks) {
  for (const auto [P, p] : kShapes) {
    for (const DataDistribution dist : {DataDistribution::kReplicated, DataDistribution::kOwned}) {
      for (const BalancePolicy policy :
           {BalancePolicy::kStatic, BalancePolicy::kCostModel, BalancePolicy::kSteal}) {
        RunOptions o = distributed_options(P, p);
        o.distribution = dist;
        o.balance = policy;
        SCOPED_TRACE(shape(P, p, dist) + " balance=" + std::to_string(static_cast<int>(policy)));
        expect_matches_one_thread(run(o), P, p);
      }
    }
  }
}

// OCT_CILK is one rank whose pool runs the canonical chunk fold: p threads
// cut and fold the chunks of 1 x p and of p x 1, to the bit.
TEST_F(HybridTest, CilkIsTheOneRankShape) {
  for (const int p : {1, 2, 4}) {
    SCOPED_TRACE("cilk p=" + std::to_string(p));
    EXPECT_EQ(route(cilk_options(p)), Driver::kCanonical);
    const RunResult r = run(cilk_options(p));
    const RunResult one_rank = run(distributed_options(1, p));
    EXPECT_EQ(r.energy, one_rank.energy);
    EXPECT_EQ(r.born_sorted, one_rank.born_sorted);
    expect_matches_one_thread(r, 1, p);
  }
}

// The last rank dies at each collective in turn — replicated runs enter
// three (Born token, radii allgatherv, E_pol token), owned runs four (Born
// token, Born extrema, leaf-row allgatherv, E_pol token) — and a seeded
// message/collective/hot-array schedule flips bits, plus one flip in each
// phase's first chunk (rank 0 executes it under kStatic, on a pool worker;
// the rank thread seals it).
TEST_F(HybridTest, DeathsAndCorruptionRecoverExactly) {
  mpisim::CorruptionPlan::RandomProfile profile;
  profile.max_hot_arrays = 4;
  for (const auto [P, p] : kShapes) {
    for (const DataDistribution dist : {DataDistribution::kReplicated, DataDistribution::kOwned}) {
      // A lone rank's death ends the job.
      const std::uint64_t collectives = P == 1 ? 0 : dist == DataDistribution::kOwned ? 4 : 3;
      for (std::uint64_t seq = 0; seq < collectives; ++seq) {
        RunOptions o = distributed_options(P, p);
        o.distribution = dist;
        o.faults.deaths.push_back({P - 1, seq});
        SCOPED_TRACE(shape(P, p, dist) + " death at collective " + std::to_string(seq));
        const RunResult r = run(o);
        EXPECT_TRUE(r.degraded);
        expect_matches_one_thread(r, P, p);
      }
      RunOptions o = distributed_options(P, p);
      o.distribution = dist;
      o.corruption = mpisim::CorruptionPlan::random(static_cast<std::uint64_t>(40 * P + p), P,
                                                    profile);
      o.corruption.hot_arrays.push_back({0, mpisim::CorruptionPlan::kBornPartials, 0, 77});
      o.corruption.hot_arrays.push_back({0, mpisim::CorruptionPlan::kEpolPartials, 0, 5});
      SCOPED_TRACE(shape(P, p, dist) + " corrupted");
      const RunResult r = run(o);
      EXPECT_GE(r.corruption_injected, 2u);
      EXPECT_EQ(r.corruption_detected, r.corruption_injected);
      EXPECT_EQ(r.corruption_recomputed + r.corruption_retransmits, r.corruption_detected);
      expect_matches_one_thread(r, P, p);
    }
  }
}

// A kill in the Born phase (collective 0) and in the E_pol phase
// (collective 2), each after the last rank's second chunk; the restart
// resumes from the snapshots its pool-computed chunks were recorded in.
TEST_F(HybridTest, KillAndRestartResumesExactly) {
  const std::string base = testing::fresh_temp_dir("gbpol_hybrid_kill") + "/";
  for (const auto [P, p] : kShapes) {
    for (const std::uint64_t seq : {0u, 2u}) {
      const std::string dir = base + std::to_string(P) + std::to_string(p) + std::to_string(seq);
      std::filesystem::remove_all(dir);
      RunOptions o = distributed_options(P, p);
      o.checkpoint.dir = dir;
      o.checkpoint.every_k_chunks = 1;
      o.checkpoint.every_n_collectives = 1;
      o.kill = {.armed = true, .rank = P - 1, .collective_seq = seq, .tick = 2};
      SCOPED_TRACE(shape(P, p, DataDistribution::kReplicated) + " kill at collective " +
                   std::to_string(seq));
      EXPECT_TRUE(run(o).killed);
      o.kill = {};
      o.checkpoint.resume = true;
      const RunResult resumed = run(o);
      EXPECT_TRUE(resumed.resumed);
      expect_matches_one_thread(resumed, P, p);
      std::filesystem::remove_all(dir);
    }
  }
}

// The first 12 complexes of the zdock-like suite: three 2 x 2 runs agree to
// the bit with each other and with 4 x 1.
TEST(HybridSuiteTest, RepeatedRunsAreBitIdentical) {
  const molgen::SuiteSpec spec;
  const std::vector<std::size_t> sizes = molgen::zdock_like_sizes(spec);
  for (std::size_t i = 0; i < 12; ++i) {
    const Molecule mol = molgen::bound_complex(sizes[i], spec.seed + i);
    const surface::SurfaceQuadrature quad = surface::molecular_surface_quadrature(
        mol, {.grid_spacing = 2.0, .dunavant_degree = 1, .kappa = 2.3});
    const Prepared prep = Prepared::build(mol, quad, 16);
    const Engine engine(prep);
    const RunResult twin = engine.run(distributed_options(4));
    for (int rep = 0; rep < 3; ++rep) {
      SCOPED_TRACE("complex " + std::to_string(i) + " rep " + std::to_string(rep));
      const RunResult r = engine.run(distributed_options(2, 2));
      EXPECT_EQ(r.energy, twin.energy);
      EXPECT_EQ(r.born_sorted, twin.born_sorted);
    }
  }
}

}  // namespace
}  // namespace gbpol
