// Deterministic fault-injection layer: logical-clock scheduling, CommError
// status channel, straggler accounting, and degraded-mode recovery in the
// distributed drivers — including the headline guarantee that a fault-
// recovered run reproduces the fault-free E_pol BIT-IDENTICALLY.
#include "mpisim/faults.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "molecule/generate.hpp"
#include "mpisim/runtime.hpp"
#include "surface/quadrature.hpp"
#include "test_helpers.hpp"

namespace gbpol {
namespace {

using mpisim::CollectiveStatus;
using mpisim::Comm;
using mpisim::CommError;
using mpisim::FaultPlan;
using mpisim::ProxyPub;
using mpisim::RecvStatus;
using mpisim::Runtime;
using mpisim::RunReport;

Runtime::Config runtime_config(int ranks, FaultPlan plan = {}) {
  Runtime::Config cfg;
  cfg.ranks = ranks;
  cfg.faults = std::move(plan);
  return cfg;
}

// ---------------------------------------------------------------------------
// FaultPlan / FaultSchedule basics

TEST(FaultPlanTest, RandomPlanIsDeterministicInSeed) {
  const FaultPlan::RandomProfile profile;
  const FaultPlan a = FaultPlan::random(1234, 8, profile);
  const FaultPlan b = FaultPlan::random(1234, 8, profile);
  ASSERT_EQ(a.delays.size(), b.delays.size());
  for (std::size_t i = 0; i < a.delays.size(); ++i) {
    EXPECT_EQ(a.delays[i].src, b.delays[i].src);
    EXPECT_EQ(a.delays[i].dst, b.delays[i].dst);
    EXPECT_EQ(a.delays[i].send_seq, b.delays[i].send_seq);
    EXPECT_EQ(a.delays[i].extra_seconds, b.delays[i].extra_seconds);
  }
  ASSERT_EQ(a.drops.size(), b.drops.size());
  ASSERT_EQ(a.stragglers.size(), b.stragglers.size());
  ASSERT_EQ(a.deaths.size(), b.deaths.size());
  for (std::size_t i = 0; i < a.deaths.size(); ++i) {
    EXPECT_EQ(a.deaths[i].rank, b.deaths[i].rank);
    EXPECT_EQ(a.deaths[i].collective_seq, b.deaths[i].collective_seq);
  }
  // Different seeds should (essentially always) differ somewhere.
  bool any_diff = false;
  for (std::uint64_t s = 0; s < 32 && !any_diff; ++s) {
    const FaultPlan c = FaultPlan::random(s, 8, profile);
    any_diff = c.delays.size() != a.delays.size() || c.deaths.size() != a.deaths.size() ||
               c.drops.size() != a.drops.size();
  }
  EXPECT_TRUE(any_diff);
}

TEST(FaultPlanTest, RandomPlanStaysInBounds) {
  FaultPlan::RandomProfile profile;
  profile.max_deaths = 3;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    for (const int ranks : {1, 2, 5}) {
      const FaultPlan plan = FaultPlan::random(seed, ranks, profile);
      EXPECT_LT(static_cast<int>(plan.deaths.size()), std::max(1, ranks));
      for (const auto& d : plan.deaths) {
        EXPECT_GE(d.rank, 0);
        EXPECT_LT(d.rank, ranks);
      }
      for (const auto& d : plan.delays) {
        EXPECT_NE(d.src, d.dst);
        EXPECT_GT(d.extra_seconds, 0.0);
      }
      for (const auto& d : plan.drops) EXPECT_GE(d.lost_copies, 1);
    }
  }
  // 1-rank jobs are immortal: there is nobody to recover onto.
  for (std::uint64_t seed = 0; seed < 50; ++seed)
    EXPECT_TRUE(FaultPlan::random(seed, 1, profile).deaths.empty());
}

// ---------------------------------------------------------------------------
// Point-to-point faults

TEST(FaultInjectionTest, DelayChargesModeledLatenessAtReceiver) {
  const double kExtra = 5e-4;
  const auto run = [&](FaultPlan plan) {
    return Runtime::run(runtime_config(2, std::move(plan)), [](Comm& comm) {
      std::vector<double> buf(8, static_cast<double>(comm.rank()));
      if (comm.rank() == 0) comm.send<double>(buf, 1, 7);
      else comm.recv<double>(buf, 0, 7);
    });
  };
  const RunReport clean = run({});
  FaultPlan plan;
  plan.delays.push_back({.src = 0, .dst = 1, .send_seq = 0, .extra_seconds = kExtra});
  const RunReport delayed = run(std::move(plan));
  EXPECT_NEAR(delayed.ranks[1].comm_seconds - clean.ranks[1].comm_seconds, kExtra, 1e-12);
  EXPECT_EQ(delayed.retries, 0u);
  EXPECT_FALSE(delayed.degraded);
}

TEST(FaultInjectionTest, DroppedMessageIsRetransmittedWithBackoff) {
  std::vector<double> received(16, 0.0);
  FaultPlan plan;
  plan.drops.push_back({.src = 0, .dst = 1, .send_seq = 0, .lost_copies = 2});
  const auto run = [&](FaultPlan p) {
    return Runtime::run(runtime_config(2, std::move(p)), [&](Comm& comm) {
      std::vector<double> buf(16);
      for (std::size_t i = 0; i < buf.size(); ++i)
        buf[i] = static_cast<double>(i) * 1.5 + 1.0;
      if (comm.rank() == 0) {
        comm.send<double>(buf, 1, 3);
      } else {
        std::vector<double> in(16, 0.0);
        const RecvStatus st = comm.recv_ft<double>(in, 0, 3);
        ASSERT_TRUE(st.ok());
        received = in;
      }
    });
  };
  const RunReport clean = run({});
  const RunReport dropped = run(std::move(plan));
  // The payload survives the drops; the receiver pays two retransmit rounds.
  for (std::size_t i = 0; i < received.size(); ++i)
    EXPECT_EQ(received[i], static_cast<double>(i) * 1.5 + 1.0);
  EXPECT_EQ(dropped.retries, 2u);
  EXPECT_GT(dropped.ranks[1].comm_seconds, clean.ranks[1].comm_seconds);
  EXPECT_FALSE(dropped.degraded);
}

TEST(FaultInjectionTest, StragglerSurplusLandsInComputeChannel) {
  FaultPlan plan;
  plan.stragglers.push_back({.rank = 1, .slowdown_factor = 3.0});
  const RunReport report =
      Runtime::run(runtime_config(2, std::move(plan)), [](Comm& comm) {
        comm.add_compute_seconds(1.0);  // deterministic "measured" second
      });
  EXPECT_DOUBLE_EQ(report.ranks[0].compute_seconds, 1.0);
  EXPECT_DOUBLE_EQ(report.ranks[0].straggler_seconds, 0.0);
  EXPECT_DOUBLE_EQ(report.ranks[1].compute_seconds, 1.0);
  EXPECT_DOUBLE_EQ(report.ranks[1].straggler_seconds, 2.0);
  // The satellite fix: modeled perturbations surface through the same
  // channel callers already read for makespans.
  EXPECT_DOUBLE_EQ(report.max_compute_seconds(), 3.0);
  EXPECT_GE(report.modeled_seconds(), 3.0);
}

// ---------------------------------------------------------------------------
// Rank death: status channel, liveness, proxy retry

TEST(FaultInjectionTest, CollectiveReportsDeadRankInsteadOfDeadlocking) {
  FaultPlan plan;
  plan.deaths.push_back({.rank = 2, .collective_seq = 0});
  std::vector<double> results(3, 0.0);
  const RunReport report =
      Runtime::run(runtime_config(3, std::move(plan)), [&](Comm& comm) {
        double data[1] = {static_cast<double>(comm.rank() + 1)};
        double proxy_contrib = 0.0;
        std::vector<ProxyPub> pubs;
        for (;;) {
          const CollectiveStatus st = comm.allreduce_sum_ft({data, 1}, pubs);
          if (st.ok()) break;
          ASSERT_EQ(st.error, CommError::kRankDied);
          ASSERT_EQ(st.dead, std::vector<int>({2}));
          ASSERT_EQ(st.missing, std::vector<int>({2}));
          // Highest survivor re-creates the dead rank's contribution.
          if (comm.rank() == 1) {
            proxy_contrib = 3.0;
            pubs.assign(1, ProxyPub{2, &proxy_contrib});
          }
        }
        results[static_cast<std::size_t>(comm.rank())] = data[0];
      });
  EXPECT_DOUBLE_EQ(results[0], 6.0);
  EXPECT_DOUBLE_EQ(results[1], 6.0);
  EXPECT_TRUE(report.degraded);
  EXPECT_TRUE(report.ranks[2].died);
  EXPECT_GE(report.retries, 2u);  // both survivors aborted once
}

TEST(FaultInjectionTest, RecvFromDeadPeerReturnsPeerDead) {
  FaultPlan plan;
  plan.deaths.push_back({.rank = 0, .collective_seq = 0});
  CommError observed = CommError::kOk;
  const RunReport report =
      Runtime::run(runtime_config(2, std::move(plan)), [&](Comm& comm) {
        comm.barrier();  // rank 0 dies here; rank 1 passes once it arrived
        if (comm.rank() == 1) {
          double buf[1];
          observed = comm.recv_ft<double>({buf, 1}, 0, 9).error;
        }
      });
  EXPECT_EQ(observed, CommError::kPeerDead);
  EXPECT_TRUE(report.degraded);
}

TEST(FaultInjectionTest, QueuedMessagesSurviveSenderDeath) {
  // A message sent BEFORE the sender died must still be deliverable.
  FaultPlan plan;
  plan.deaths.push_back({.rank = 0, .collective_seq = 0});
  double got = 0.0;
  Runtime::run(runtime_config(2, std::move(plan)), [&](Comm& comm) {
    if (comm.rank() == 0) {
      const double v = 42.0;
      comm.send<double>({&v, 1}, 1, 5);
      comm.barrier();  // dies
    } else {
      comm.barrier();
      double buf[1] = {0.0};
      const RecvStatus st = comm.recv_ft<double>({buf, 1}, 0, 5);
      EXPECT_TRUE(st.ok());
      got = buf[0];
    }
  });
  EXPECT_DOUBLE_EQ(got, 42.0);
}

TEST(FaultInjectionTest, RecvWatchdogFailsFastInsteadOfHanging) {
  Runtime::Config cfg = runtime_config(2);
  cfg.recv_watchdog_seconds = 0.05;
  CommError observed = CommError::kOk;
  Runtime::run(cfg, [&](Comm& comm) {
    if (comm.rank() == 1) {
      double buf[1];
      observed = comm.recv_ft<double>({buf, 1}, 0, 11).error;  // never sent
    }
  });
  EXPECT_EQ(observed, CommError::kTimeout);
}

// ---------------------------------------------------------------------------
// Degraded-mode recovery in the distributed driver

class FaultedDriverTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    mol_ = new Molecule(molgen::synthetic_protein(320, 11));
    quad_ = new surface::SurfaceQuadrature(surface::molecular_surface_quadrature(
        *mol_, {.grid_spacing = 1.5, .dunavant_degree = 2, .kappa = 2.3}));
    prep_ = new Prepared(Prepared::build(*mol_, *quad_, 16));
  }
  static void TearDownTestSuite() {
    delete prep_;
    delete quad_;
    delete mol_;
  }

  static RunResult run(int ranks, FaultPlan plan) {
    RunOptions options;
    options.mode = EngineMode::kDistributed;
    options.ranks = ranks;
    options.faults = std::move(plan);
    return Engine(*prep_, ApproxParams{}, GBConstants{}).run(options);
  }

  static void expect_bit_identical(const RunResult& faulty,
                                   const RunResult& clean) {
    EXPECT_EQ(faulty.energy, clean.energy);  // exact: 0 ulp
    ASSERT_EQ(faulty.born_sorted.size(), clean.born_sorted.size());
    for (std::size_t i = 0; i < clean.born_sorted.size(); ++i)
      ASSERT_EQ(faulty.born_sorted[i], clean.born_sorted[i]) << "born slot " << i;
  }

  static Molecule* mol_;
  static surface::SurfaceQuadrature* quad_;
  static Prepared* prep_;
};
Molecule* FaultedDriverTest::mol_ = nullptr;
surface::SurfaceQuadrature* FaultedDriverTest::quad_ = nullptr;
Prepared* FaultedDriverTest::prep_ = nullptr;

TEST_F(FaultedDriverTest, DeathAtEachCollectiveRecoversBitExactlyOnTheChunkFold) {
  // Plain OCT_MPI runs the canonical chunk fold: survivors recompute the
  // dead rank's orphaned chunks and the writer proxies its radii.
  const RunResult clean = run(4, {});
  ASSERT_NE(clean.energy, 0.0);
  // 0 = Born token, 1 = radii allgatherv, 2 = E_pol token.
  for (const std::uint64_t seq : {0u, 1u, 2u}) {
    FaultPlan plan;
    plan.deaths.push_back({.rank = 2, .collective_seq = seq});
    const RunResult faulty = run(4, plan);
    SCOPED_TRACE("death at collective " + std::to_string(seq));
    expect_bit_identical(faulty, clean);
    EXPECT_TRUE(faulty.degraded);
    EXPECT_EQ(faulty.redistributed_work_items,
              testing::canonical_death_redistribution(*prep_, 4, 2, seq));
  }
}

TEST_F(FaultedDriverTest, RootDeathRedirectsHarvestToSurvivor) {
  const RunResult clean = run(3, {});
  for (const std::uint64_t seq : {0u, 2u}) {
    FaultPlan plan;
    plan.deaths.push_back({.rank = 0, .collective_seq = seq});
    const RunResult faulty = run(3, plan);
    SCOPED_TRACE("root death at collective " + std::to_string(seq));
    expect_bit_identical(faulty, clean);
    EXPECT_TRUE(faulty.degraded);
  }
}

TEST_F(FaultedDriverTest, MultipleDeathsRecoverBitExactly) {
  const RunResult clean = run(5, {});
  FaultPlan plan;
  plan.deaths.push_back({.rank = 1, .collective_seq = 0});
  plan.deaths.push_back({.rank = 3, .collective_seq = 2});
  const RunResult faulty = run(5, plan);
  expect_bit_identical(faulty, clean);
  EXPECT_TRUE(faulty.degraded);
  EXPECT_GT(faulty.redistributed_work_items, 0u);
}

TEST_F(FaultedDriverTest, StalledRankIsConvertedToDeathAndRecoveredBitExactly) {
  // Supervisor watchdog: a rank that stops making logical-clock progress is
  // converted into the death-recovery path. Survivors legitimately blocked
  // at the same barrier are equally "stagnant" but must come to no harm —
  // only the parked rank reacts to the conversion.
  const RunResult clean = run(4, {});
  for (const std::uint64_t seq : {0u, 1u, 2u}) {
    FaultPlan plan;
    plan.stalls.push_back({.rank = 2, .collective_seq = seq});
    RunOptions config;
    config.mode = EngineMode::kDistributed;
    config.ranks = 4;
    config.faults = plan;
    config.stall_timeout_seconds = 0.1;
    const RunResult faulty =
        Engine(*prep_, ApproxParams{}, GBConstants{}).run(config);
    SCOPED_TRACE("stall at collective " + std::to_string(seq));
    expect_bit_identical(faulty, clean);
    EXPECT_TRUE(faulty.degraded);
    EXPECT_EQ(faulty.stalls_converted, 1);
    EXPECT_EQ(faulty.error_class, ErrorClass::kTimeout);
  }
}

TEST_F(FaultedDriverTest, StallAndDeathMixRecoversBitExactly) {
  const RunResult clean = run(5, {});
  FaultPlan plan;
  plan.deaths.push_back({.rank = 1, .collective_seq = 0});
  plan.stalls.push_back({.rank = 3, .collective_seq = 2});
  RunOptions config;
  config.mode = EngineMode::kDistributed;
  config.ranks = 5;
  config.faults = plan;
  config.stall_timeout_seconds = 0.1;
  const RunResult faulty =
      Engine(*prep_, ApproxParams{}, GBConstants{}).run(config);
  expect_bit_identical(faulty, clean);
  EXPECT_TRUE(faulty.degraded);
  EXPECT_EQ(faulty.stalls_converted, 1);
}

TEST_F(FaultedDriverTest, FaultScheduleReplayIsBitIdentical) {
  const FaultPlan plan = FaultPlan::random(99, 4, {.max_deaths = 1, .collective_horizon = 3});
  const RunResult a = run(4, plan);
  const RunResult b = run(4, plan);
  EXPECT_EQ(a.energy, b.energy);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.redistributed_work_items, b.redistributed_work_items);
  EXPECT_EQ(a.degraded, b.degraded);
  for (std::size_t i = 0; i < a.born_sorted.size(); ++i)
    ASSERT_EQ(a.born_sorted[i], b.born_sorted[i]);
}

TEST_F(FaultedDriverTest, DelaysAndStragglersPerturbTimeNotPhysics) {
  const RunResult clean = run(4, {});
  FaultPlan plan;
  plan.stragglers.push_back({.rank = 2, .slowdown_factor = 4.0});
  plan.delays.push_back({.src = 0, .dst = 1, .send_seq = 0, .extra_seconds = 1e-3});
  const RunResult faulty = run(4, plan);
  expect_bit_identical(faulty, clean);
  EXPECT_FALSE(faulty.degraded);
  EXPECT_EQ(faulty.retries, 0u);
}

}  // namespace
}  // namespace gbpol
