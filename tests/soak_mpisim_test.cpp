// Randomized soak harness for the fault-injection layer (ISSUE 2 acceptance
// matrix): >= 100 seeded random fault schedules across >= 3 rank counts, and
// for EVERY schedule the fault-recovered run must reproduce the fault-free
// E_pol and Born radii exactly (0 ulp), with deterministic replay. Extended
// (ISSUE 3) with kill-at-random-checkpoint schedules: a SIGKILL-equivalent
// whole-process abort at a seeded logical clock, followed by a restart from
// the latest snapshot set, must also reproduce the clean answer exactly.
//
// Registered under the `soak` CTest label and excluded from the default
// tier-1 run (enable with -DGBPOL_SOAK_TESTS=ON or `ctest -L soak`).
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "molecule/generate.hpp"
#include "mpisim/faults.hpp"
#include "mpisim/runtime.hpp"
#include "surface/quadrature.hpp"

namespace gbpol {
namespace {

using mpisim::FaultPlan;

class SoakMpisimTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    mol_ = new Molecule(molgen::synthetic_protein(260, 19));
    quad_ = new surface::SurfaceQuadrature(surface::molecular_surface_quadrature(
        *mol_, {.grid_spacing = 1.5, .dunavant_degree = 2, .kappa = 2.3}));
    prep_ = new Prepared(Prepared::build(*mol_, *quad_, 16));
  }
  static void TearDownTestSuite() {
    delete prep_;
    delete quad_;
    delete mol_;
  }

  static RunResult run(int ranks, const FaultPlan& plan) {
    RunOptions config;  // default traversal: TraversalMode::kList
    config.mode = EngineMode::kDistributed;
    config.ranks = ranks;
    config.faults = plan;
    return Engine(*prep_, ApproxParams{}, GBConstants{}).run(config);
  }

  static Molecule* mol_;
  static surface::SurfaceQuadrature* quad_;
  static Prepared* prep_;
};
Molecule* SoakMpisimTest::mol_ = nullptr;
surface::SurfaceQuadrature* SoakMpisimTest::quad_ = nullptr;
Prepared* SoakMpisimTest::prep_ = nullptr;

// The acceptance matrix: 3 rank counts x 35 seeds = 105 random schedules.
TEST_F(SoakMpisimTest, RandomSchedulesRecoverBitExactly) {
  FaultPlan::RandomProfile profile;
  profile.max_deaths = 2;
  profile.collective_horizon = 5;  // covers all 3 driver collectives + retries
  constexpr int kSeedsPerRankCount = 35;

  for (const int ranks : {3, 5, 8}) {
    const RunResult clean = run(ranks, {});
    ASSERT_NE(clean.energy, 0.0);
    for (int s = 0; s < kSeedsPerRankCount; ++s) {
      const std::uint64_t seed =
          static_cast<std::uint64_t>(ranks) * 1000 + static_cast<std::uint64_t>(s);
      const FaultPlan plan = FaultPlan::random(seed, ranks, profile);
      const RunResult faulty = run(ranks, plan);
      SCOPED_TRACE("ranks=" + std::to_string(ranks) + " seed=" + std::to_string(seed) +
                   " deaths=" + std::to_string(plan.deaths.size()));
      // Exact equality — no tolerance. Recovery must reproduce the
      // fault-free floating-point operation sequence, not approximate it.
      ASSERT_EQ(faulty.energy, clean.energy);
      ASSERT_EQ(faulty.born_sorted.size(), clean.born_sorted.size());
      for (std::size_t i = 0; i < clean.born_sorted.size(); ++i)
        ASSERT_EQ(faulty.born_sorted[i], clean.born_sorted[i]) << "born slot " << i;
      // A scheduled death only fires if its collective_seq is actually
      // reached (the driver runs 3 collectives plus any retries), so
      // degraded implies a death was scheduled — not the converse.
      EXPECT_TRUE(!faulty.degraded || plan.has_deaths());
      // Every 10th schedule: replay and require identical fault accounting.
      if (s % 10 == 0) {
        const RunResult replay = run(ranks, plan);
        ASSERT_EQ(replay.energy, faulty.energy);
        ASSERT_EQ(replay.retries, faulty.retries);
        ASSERT_EQ(replay.redistributed_work_items, faulty.redistributed_work_items);
        ASSERT_EQ(replay.degraded, faulty.degraded);
      }
    }
  }
}

// Death-heavy soak: every schedule kills at least one rank, drawn across the
// whole collective horizon, so the recovery paths (not just the delay/drop
// bookkeeping) get the bulk of the coverage.
TEST_F(SoakMpisimTest, DeathHeavySchedulesRecoverBitExactly) {
  const int ranks = 4;
  const RunResult clean = run(ranks, {});
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    FaultPlan plan;
    // collective_seq in {0, 1, 2}: the driver's three collectives, so every
    // scheduled death actually fires.
    plan.deaths.push_back(
        {.rank = static_cast<int>(seed % ranks), .collective_seq = seed % 3});
    if (seed % 3 == 0 && (seed % ranks) != 2)
      plan.deaths.push_back({.rank = 2, .collective_seq = (seed + 1) % 3});
    const RunResult faulty = run(ranks, plan);
    SCOPED_TRACE("seed=" + std::to_string(seed));
    ASSERT_EQ(faulty.energy, clean.energy);
    for (std::size_t i = 0; i < clean.born_sorted.size(); ++i)
      ASSERT_EQ(faulty.born_sorted[i], clean.born_sorted[i]) << "born slot " << i;
    EXPECT_TRUE(faulty.degraded);
  }
}

// Kill-at-random-checkpoint soak: 3 rank counts x 18 seeds = 54 schedules.
// Each schedule arms a SIGKILL-equivalent at a seeded logical clock (kill
// rank, collective phase, poll tick) with seeded checkpoint cadence, then
// restarts with resume enabled. Whether the kill fired, and whether the
// restart resumed from snapshots or fell back to a cold start, the final
// answer must equal the uninterrupted run at the same chunk granularity to
// the last bit (the chunk fold changes with the boundaries, so each
// granularity has its own reference).
TEST_F(SoakMpisimTest, KillAndRestartSchedulesResumeBitExactly) {
  constexpr int kSeedsPerRankCount = 18;
  const std::string base =
      ::testing::TempDir() + "/gbpol_soak_ckpt_" + std::to_string(::getpid());

  for (const int ranks : {3, 5, 8}) {
    std::map<std::uint32_t, RunResult> references;
    for (int s = 0; s < kSeedsPerRankCount; ++s) {
      const std::uint64_t seed =
          static_cast<std::uint64_t>(ranks) * 100 + static_cast<std::uint64_t>(s);
      const std::string dir = base + "_" + std::to_string(seed);
      std::filesystem::remove_all(dir);

      RunOptions config;
      config.mode = EngineMode::kDistributed;
      config.ranks = ranks;
      config.balance_chunk_leaves = 1 + static_cast<std::uint32_t>(seed % 4);
      auto reference = references.find(config.balance_chunk_leaves);
      if (reference == references.end()) {
        RunResult clean = Engine(*prep_, ApproxParams{}, GBConstants{}).run(config);
        ASSERT_NE(clean.energy, 0.0);
        reference =
            references.emplace(config.balance_chunk_leaves, std::move(clean)).first;
      }
      const RunResult& clean = reference->second;
      config.checkpoint.dir = dir;
      config.checkpoint.every_k_chunks = 1 + static_cast<std::uint32_t>(seed % 2);
      config.checkpoint.every_n_collectives = 1;
      config.kill.armed = true;
      config.kill.rank = static_cast<int>(seed % static_cast<std::uint64_t>(ranks));
      config.kill.collective_seq = (seed / 2) % 2 == 0 ? 0 : 2;  // Born / Epol phase
      config.kill.tick = 1 + (seed / 3) % 4;
      const RunResult killed =
          Engine(*prep_, ApproxParams{}, GBConstants{}).run(config);
      SCOPED_TRACE("ranks=" + std::to_string(ranks) + " seed=" + std::to_string(seed) +
                   " kill_rank=" + std::to_string(config.kill.rank) +
                   " kill_seq=" + std::to_string(config.kill.collective_seq) +
                   " tick=" + std::to_string(config.kill.tick));
      if (!killed.killed) {
        // The seeded tick was beyond this rank's poll count, so the run
        // finished untouched — it must already be exact.
        ASSERT_EQ(killed.energy, clean.energy);
        std::filesystem::remove_all(dir);
        continue;
      }
      // Restart from the latest snapshot set.
      config.kill = {};
      config.checkpoint.resume = true;
      const RunResult resumed =
          Engine(*prep_, ApproxParams{}, GBConstants{}).run(config);
      EXPECT_TRUE(resumed.resumed);
      ASSERT_EQ(resumed.energy, clean.energy);
      ASSERT_EQ(resumed.born_sorted.size(), clean.born_sorted.size());
      for (std::size_t i = 0; i < clean.born_sorted.size(); ++i)
        ASSERT_EQ(resumed.born_sorted[i], clean.born_sorted[i]) << "born slot " << i;
      std::filesystem::remove_all(dir);
    }
  }
}

// Hybrid soak: 30 seeded 2-thread-per-rank schedules over 3, 4 and 5 ranks.
// Even seeds draw random fault schedules (deaths included); odd seeds arm a
// kill at a seeded logical clock and restart from the snapshots. Either way
// the answer must equal the one-thread run on as many ranks as the job has
// workers, to the last bit.
TEST_F(SoakMpisimTest, HybridDeathAndKillSchedulesMatchOneThreadRanks) {
  FaultPlan::RandomProfile profile;
  profile.max_deaths = 2;
  profile.collective_horizon = 5;
  const std::string base =
      ::testing::TempDir() + "/gbpol_soak_hybrid_" + std::to_string(::getpid());
  const Engine engine(*prep_);
  const std::map<int, RunResult> twins = {{3, run(6, {})}, {4, run(8, {})}, {5, run(10, {})}};
  int killed = 0, degraded = 0;
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    const int ranks = 3 + static_cast<int>(seed % 3);
    const RunResult& twin = twins.at(ranks);  // (2 * ranks) x 1
    RunOptions config = distributed_options(ranks, 2);
    const std::string dir = base + "_" + std::to_string(seed);
    std::filesystem::remove_all(dir);
    if (seed % 2 == 0) {
      config.faults = FaultPlan::random(7000 + seed, ranks, profile);
    } else {
      config.checkpoint.dir = dir;
      config.checkpoint.every_k_chunks = 1 + static_cast<std::uint32_t>((seed / 2) % 2);
      config.checkpoint.every_n_collectives = 1;
      config.kill = {.armed = true,
                     .rank = static_cast<int>(seed % static_cast<std::uint64_t>(ranks)),
                     .collective_seq = (seed / 2) % 2 == 0 ? 0u : 2u,
                     .tick = 1 + (seed / 3) % 4};
    }
    SCOPED_TRACE("ranks=" + std::to_string(ranks) + " seed=" + std::to_string(seed));
    RunResult r = engine.run(config);
    degraded += seed % 2 == 0 && r.degraded ? 1 : 0;
    if (r.killed) {
      ++killed;
      config.kill = {};
      config.checkpoint.resume = true;
      r = engine.run(config);
      EXPECT_TRUE(r.resumed);
    }
    std::filesystem::remove_all(dir);
    ASSERT_EQ(r.energy, twin.energy);
    ASSERT_EQ(r.born_sorted, twin.born_sorted);
  }
  EXPECT_GT(killed, 5);
  EXPECT_GT(degraded, 5);
}

// Cascading death: the recovery of the first death is itself interrupted by
// the death of another survivor at the immediately following logical clock
// (the retried collective), so the recovery stripe has to re-form around the
// second corpse. The final answer must still be exact.
TEST_F(SoakMpisimTest, CascadingDeathDuringRecoveryStaysBitExact) {
  const int ranks = 5;
  const RunResult clean = run(ranks, {});
  // (first victim, second victim dying one collective later)
  const std::pair<int, int> cascades[] = {{1, 2}, {2, 3}, {3, 1}, {1, 4}, {4, 2}};
  for (const auto& [first, second] : cascades) {
    for (const std::uint64_t seq : {0u, 1u}) {
      FaultPlan plan;
      plan.deaths.push_back({.rank = first, .collective_seq = seq});
      plan.deaths.push_back({.rank = second, .collective_seq = seq + 1});
      const RunResult faulty = run(ranks, plan);
      SCOPED_TRACE("cascade " + std::to_string(first) + "->" + std::to_string(second) +
                   " at seq " + std::to_string(seq));
      ASSERT_EQ(faulty.energy, clean.energy);
      for (std::size_t i = 0; i < clean.born_sorted.size(); ++i)
        ASSERT_EQ(faulty.born_sorted[i], clean.born_sorted[i]) << "born slot " << i;
      EXPECT_TRUE(faulty.degraded);
    }
  }
  // Triple cascade across all three driver collectives.
  FaultPlan plan;
  plan.deaths.push_back({.rank = 1, .collective_seq = 0});
  plan.deaths.push_back({.rank = 2, .collective_seq = 1});
  plan.deaths.push_back({.rank = 3, .collective_seq = 2});
  const RunResult faulty = run(ranks, plan);
  ASSERT_EQ(faulty.energy, clean.energy);
  EXPECT_TRUE(faulty.degraded);
}

// Steal-schedule soak (ISSUE 5 acceptance matrix): 3 rank counts x 30
// seeded balanced-path configurations. Each seed picks a chunk granularity,
// a policy (kSteal, with kCostModel sprinkled in), and every third seed
// injects a death; the answer must equal the canonical kStatic baseline AT
// THE SAME CHUNK GRANULARITY to the last bit, because the chunk-fold
// reduction depends only on the chunk boundaries, never on the assignment.
TEST_F(SoakMpisimTest, StealSchedulesMatchCanonicalStaticBitExactly) {
  constexpr int kSeedsPerRankCount = 30;
  for (const int ranks : {3, 5, 8}) {
    // Plain kStatic baseline per chunk granularity (the fold changes with
    // the boundaries, so each granularity has its own).
    std::map<std::uint32_t, RunResult> baselines;
    for (int s = 0; s < kSeedsPerRankCount; ++s) {
      const std::uint64_t seed =
          static_cast<std::uint64_t>(ranks) * 10000 + static_cast<std::uint64_t>(s);
      const std::uint32_t chunk_leaves = 1 + static_cast<std::uint32_t>(seed % 5);

      RunOptions options;
      options.mode = EngineMode::kDistributed;
      options.ranks = ranks;
      options.balance =
          s % 5 == 4 ? BalancePolicy::kCostModel : BalancePolicy::kSteal;
      options.balance_chunk_leaves = chunk_leaves;
      if (s % 3 == 0) {
        // The replicated chunk fold always reaches collective_seq 0 and 1
        // (the Born phase sync and the radii allgatherv), so these deaths
        // are guaranteed to fire.
        options.faults.deaths.push_back(
            {.rank = static_cast<int>(seed % static_cast<std::uint64_t>(ranks)),
             .collective_seq = seed % 2});
      }

      auto baseline = baselines.find(chunk_leaves);
      if (baseline == baselines.end()) {
        RunOptions canonical;
        canonical.mode = EngineMode::kDistributed;
        canonical.ranks = ranks;
        canonical.balance_chunk_leaves = chunk_leaves;
        RunResult clean =
            Engine(*prep_, ApproxParams{}, GBConstants{}).run(canonical);
        ASSERT_NE(clean.energy, 0.0);
        baseline = baselines.emplace(chunk_leaves, std::move(clean)).first;
      }
      const RunResult& clean = baseline->second;

      const RunResult balanced =
          Engine(*prep_, ApproxParams{}, GBConstants{}).run(options);
      SCOPED_TRACE("ranks=" + std::to_string(ranks) + " seed=" + std::to_string(seed) +
                   " chunk_leaves=" + std::to_string(chunk_leaves) +
                   " deaths=" + std::to_string(options.faults.deaths.size()));
      ASSERT_EQ(balanced.energy, clean.energy);
      ASSERT_EQ(balanced.born_sorted.size(), clean.born_sorted.size());
      for (std::size_t i = 0; i < clean.born_sorted.size(); ++i)
        ASSERT_EQ(balanced.born_sorted[i], clean.born_sorted[i]) << "born slot " << i;
      EXPECT_TRUE(!balanced.degraded || options.faults.has_deaths());
    }
  }
}

// Owned-mode soak (ISSUE 7 acceptance matrix): 3 rank counts x 12 seeded
// owned-distribution schedules = 36 runs. Each seed picks a chunk
// granularity, a balance policy (kStatic with kSteal/kCostModel sprinkled
// in), every third seed injects a death (the owned path always reaches
// collective_seq 0..2: Born sync, Born minmax, leaf-row allgather), and
// every fourth seed drops halo p2p copies. The owned answer must equal the
// REPLICATED canonical baseline at the same chunk granularity to the last
// bit — the decomposition must be invisible in the arithmetic.
TEST_F(SoakMpisimTest, OwnedSchedulesMatchReplicatedCanonicalBitExactly) {
  constexpr int kSeedsPerRankCount = 12;
  for (const int ranks : {3, 5, 8}) {
    std::map<std::uint32_t, RunResult> baselines;
    for (int s = 0; s < kSeedsPerRankCount; ++s) {
      const std::uint64_t seed =
          static_cast<std::uint64_t>(ranks) * 20000 + static_cast<std::uint64_t>(s);
      const std::uint32_t chunk_leaves = 1 + static_cast<std::uint32_t>(seed % 5);

      RunOptions options;
      options.mode = EngineMode::kDistributed;
      options.ranks = ranks;
      options.distribution = DataDistribution::kOwned;
      options.balance = s % 5 == 4   ? BalancePolicy::kCostModel
                        : s % 5 == 2 ? BalancePolicy::kSteal
                                     : BalancePolicy::kStatic;
      options.balance_chunk_leaves = chunk_leaves;
      if (s % 3 == 0) {
        options.faults.deaths.push_back(
            {.rank = static_cast<int>(seed % static_cast<std::uint64_t>(ranks)),
             .collective_seq = seed % 3});
      }
      if (s % 4 == 1) {
        const int src = static_cast<int>(seed % static_cast<std::uint64_t>(ranks));
        const int dst = (src + 1) % ranks;
        options.faults.drops.push_back(
            {.src = src, .dst = dst, .send_seq = 0,
             .lost_copies = static_cast<int>(1 + seed % 2)});
      }

      auto baseline = baselines.find(chunk_leaves);
      if (baseline == baselines.end()) {
        RunOptions canonical;
        canonical.mode = EngineMode::kDistributed;
        canonical.ranks = ranks;
        canonical.balance_chunk_leaves = chunk_leaves;
        RunResult clean =
            Engine(*prep_, ApproxParams{}, GBConstants{}).run(canonical);
        ASSERT_NE(clean.energy, 0.0);
        baseline = baselines.emplace(chunk_leaves, std::move(clean)).first;
      }
      const RunResult& clean = baseline->second;

      const RunResult owned =
          Engine(*prep_, ApproxParams{}, GBConstants{}).run(options);
      SCOPED_TRACE("ranks=" + std::to_string(ranks) + " seed=" + std::to_string(seed) +
                   " chunk_leaves=" + std::to_string(chunk_leaves) +
                   " deaths=" + std::to_string(options.faults.deaths.size()) +
                   " drops=" + std::to_string(options.faults.drops.size()));
      // Guard against silent fallback to the replicated router: a vacuous
      // pass would hide a routing regression.
      ASSERT_GT(owned.owned_bytes_per_rank, 0u);
      ASSERT_EQ(owned.energy, clean.energy);
      ASSERT_EQ(owned.born_sorted.size(), clean.born_sorted.size());
      for (std::size_t i = 0; i < clean.born_sorted.size(); ++i)
        ASSERT_EQ(owned.born_sorted[i], clean.born_sorted[i]) << "born slot " << i;
      EXPECT_TRUE(!owned.degraded || options.faults.has_deaths());
    }
  }
}

// Silent-corruption soak (ISSUE 8 acceptance matrix): seeded random
// corruption schedules — message, collective and hot-array bit flips — across
// 3 rank counts on BOTH canonical paths (replicated chunk-fold and owned-mode
// decomposition). With the integrity guards on, every injected flip must be
// detected, the recovery must land on the corruption-free answer to the last
// bit, and replay must reproduce the corruption accounting exactly.
TEST_F(SoakMpisimTest, RandomCorruptionSchedulesRecoverBitExactly) {
  constexpr int kSeedsPerRankCount = 15;
  mpisim::CorruptionPlan::RandomProfile profile;
  profile.max_messages = 6;
  profile.max_collectives = 3;
  profile.max_hot_arrays = 4;
  profile.collective_horizon = 4;

  for (const bool owned : {false, true}) {
    for (const int ranks : {3, 5, 8}) {
      RunOptions base;
      base.mode = EngineMode::kDistributed;
      base.ranks = ranks;
      base.balance_chunk_leaves = 2;
      if (owned) base.distribution = DataDistribution::kOwned;
      const RunResult clean =
          Engine(*prep_, ApproxParams{}, GBConstants{}).run(base);
      ASSERT_NE(clean.energy, 0.0);

      for (int s = 0; s < kSeedsPerRankCount; ++s) {
        const std::uint64_t seed = static_cast<std::uint64_t>(ranks) * 30000 +
                                   (owned ? 500u : 0u) +
                                   static_cast<std::uint64_t>(s);
        RunOptions options = base;
        options.corruption =
            mpisim::CorruptionPlan::random(seed, ranks, profile);
        const RunResult corrupted =
            Engine(*prep_, ApproxParams{}, GBConstants{}).run(options);
        SCOPED_TRACE((owned ? std::string("owned") : std::string("replicated")) +
                     " ranks=" + std::to_string(ranks) +
                     " seed=" + std::to_string(seed) +
                     " injected=" + std::to_string(corrupted.corruption_injected));
        ASSERT_EQ(corrupted.energy, clean.energy);
        ASSERT_EQ(corrupted.born_sorted.size(), clean.born_sorted.size());
        for (std::size_t i = 0; i < clean.born_sorted.size(); ++i)
          ASSERT_EQ(corrupted.born_sorted[i], clean.born_sorted[i])
              << "born slot " << i;
        // CRC32 sees every single-bit flip: nothing injected goes unnoticed,
        // and every recovery is accounted as a recompute or a retransmit.
        EXPECT_EQ(corrupted.corruption_detected, corrupted.corruption_injected);
        EXPECT_EQ(corrupted.corruption_recomputed +
                      corrupted.corruption_retransmits,
                  corrupted.corruption_detected);
        // Every 5th schedule: replay and require identical accounting.
        if (s % 5 == 0) {
          const RunResult replay =
              Engine(*prep_, ApproxParams{}, GBConstants{}).run(options);
          ASSERT_EQ(replay.energy, corrupted.energy);
          ASSERT_EQ(replay.corruption_injected, corrupted.corruption_injected);
          ASSERT_EQ(replay.corruption_detected, corrupted.corruption_detected);
          ASSERT_EQ(replay.corruption_recomputed,
                    corrupted.corruption_recomputed);
          ASSERT_EQ(replay.corruption_retransmits,
                    corrupted.corruption_retransmits);
        }
      }
    }
  }
}

// P2p soak at the Comm layer: random drop/delay schedules over a ring
// exchange must never corrupt or lose a payload, and replay must reproduce
// the retry count exactly.
TEST(SoakCommTest, RingExchangeSurvivesRandomDropAndDelaySchedules) {
  constexpr int kRanks = 4;
  constexpr int kMessages = 6;
  FaultPlan::RandomProfile profile;
  profile.max_deaths = 0;  // ring has no recovery protocol; p2p faults only
  profile.max_delays = 8;
  profile.max_drops = 8;
  profile.send_seq_horizon = kMessages;

  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    const FaultPlan plan = FaultPlan::random(seed, kRanks, profile);
    const auto run_ring = [&]() {
      std::vector<int> bad(kRanks, 0);
      mpisim::Runtime::Config cfg;
      cfg.ranks = kRanks;
      cfg.faults = plan;
      const mpisim::RunReport report = mpisim::Runtime::run(cfg, [&](mpisim::Comm& comm) {
        const int me = comm.rank();
        const int next = (me + 1) % kRanks;
        const int prev = (me + kRanks - 1) % kRanks;
        for (int m = 0; m < kMessages; ++m) {
          std::vector<double> out(16);
          for (std::size_t i = 0; i < out.size(); ++i)
            out[i] = me * 1000.0 + m * 16.0 + static_cast<double>(i);
          comm.send<double>(out, next, m);
          std::vector<double> in(16, -1.0);
          comm.recv<double>(in, prev, m);
          for (std::size_t i = 0; i < in.size(); ++i)
            if (in[i] != prev * 1000.0 + m * 16.0 + static_cast<double>(i)) ++bad[me];
        }
      });
      int total_bad = 0;
      for (const int b : bad) total_bad += b;
      return std::pair<int, std::uint64_t>(total_bad, report.retries);
    };
    const auto [bad_a, retries_a] = run_ring();
    const auto [bad_b, retries_b] = run_ring();
    SCOPED_TRACE("seed=" + std::to_string(seed));
    EXPECT_EQ(bad_a, 0);
    EXPECT_EQ(bad_b, 0);
    EXPECT_EQ(retries_a, retries_b);  // deterministic replay
  }
}

}  // namespace
}  // namespace gbpol
