// End-to-end drivers: OCT_SERIAL / OCT_CILK / OCT_MPI / OCT_MPI+CILK
// agreement, work-division behaviour, memory accounting, timing plumbing.
// All runs go through the Engine/RunOptions facade (core/engine.hpp).
#include "core/engine.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "support/stats.hpp"
#include "test_helpers.hpp"

namespace gbpol {
namespace {

using testing::Fixture;
using testing::make_fixture;

RunResult run_serial(const Fixture& f, const ApproxParams& params) {
  return Engine(f.prep, params, GBConstants{}).run(serial_options());
}

class DriversTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { fixture_ = new Fixture(make_fixture(900)); }
  static void TearDownTestSuite() { delete fixture_; }
  static const Fixture& fix() { return *fixture_; }
  static Fixture* fixture_;
};
Fixture* DriversTest::fixture_ = nullptr;

TEST_F(DriversTest, SerialMatchesNaiveWithinApproximation) {
  ApproxParams params;  // paper defaults: eps 0.9 / 0.9
  const RunResult r = run_serial(fix(), params);
  EXPECT_LT(percent_error(r.energy, fix().naive_energy), 5.0);
  EXPECT_GT(r.compute_seconds, 0.0);
  EXPECT_EQ(r.comm_seconds, 0.0);
  EXPECT_EQ(r.born_sorted.size(), fix().prep.num_atoms());
}

TEST_F(DriversTest, DistributedEnergyIndependentOfRankCount) {
  // Node-node division: the computed approximation is identical for every P
  // (only FP summation order changes) — the paper's §IV-A claim.
  ApproxParams params;
  const Engine engine(fix().prep, params, GBConstants{});
  const RunResult serial = run_serial(fix(), params);
  for (const int ranks : {1, 2, 5, 12}) {
    const RunResult r = engine.run(distributed_options(ranks));
    EXPECT_NEAR(r.energy, serial.energy, std::abs(serial.energy) * 1e-10)
        << "ranks=" << ranks;
  }
}

TEST_F(DriversTest, DistributedBornRadiiMatchSerial) {
  ApproxParams params;
  const RunResult serial = run_serial(fix(), params);
  const RunResult dist =
      Engine(fix().prep, params, GBConstants{}).run(distributed_options(6));
  ASSERT_EQ(dist.born_sorted.size(), serial.born_sorted.size());
  for (std::size_t i = 0; i < serial.born_sorted.size(); ++i)
    ASSERT_NEAR(dist.born_sorted[i], serial.born_sorted[i],
                serial.born_sorted[i] * 1e-10);
}

TEST_F(DriversTest, HybridMatchesPureMpi) {
  // 2 ranks x 6 threads cut the same chunks as 12 x 1 and fold them in the
  // same order: bit-identical.
  ApproxParams params;
  const Engine engine(fix().prep, params, GBConstants{});
  RunOptions hybrid = distributed_options(2);
  hybrid.threads_per_rank = 6;
  const RunResult a = engine.run(distributed_options(12));
  const RunResult b = engine.run(hybrid);
  EXPECT_EQ(a.energy, b.energy);
  EXPECT_EQ(a.born_sorted, b.born_sorted);
}

TEST(DriversEdgeTest, MoreRanksThanLeavesGivesEmptySegmentsNotCrashes) {
  // A tiny molecule with large leaf capacity yields a handful of leaves;
  // running with far more ranks must leave the surplus ranks with empty
  // segments (they still participate in every collective) and reproduce the
  // serial answer for every division strategy.
  const Fixture tiny = testing::make_fixture(40, 5, /*leaf_capacity=*/64);
  ASSERT_LT(tiny.prep.atoms_tree.leaves().size(), 16u);
  ApproxParams params;
  const Engine engine(tiny.prep, params, GBConstants{});
  const RunResult serial = run_serial(tiny, params);
  for (const WorkDivision division : {WorkDivision::kNodeNode, WorkDivision::kAtomBased}) {
    RunOptions options = distributed_options(16);
    options.division = division;
    const RunResult r = engine.run(options);
    EXPECT_NEAR(r.energy, serial.energy, std::abs(serial.energy) * 1e-9)
        << "division=" << static_cast<int>(division);
    EXPECT_EQ(r.born_sorted.size(), serial.born_sorted.size());
  }
}

TEST(DriversEdgeTest, MoreRanksThanLeavesWithCheckpointing) {
  // Same shape with the checkpoint path on: empty per-rank chunk loops must
  // still write consistent phase-entry snapshots and resume exactly.
  const Fixture tiny = testing::make_fixture(40, 5, /*leaf_capacity=*/64);
  ApproxParams params;
  const Engine engine(tiny.prep, params, GBConstants{});
  const RunResult serial = run_serial(tiny, params);
  const std::string dir = testing::fresh_temp_dir("gbpol_edge_ckpt");
  RunOptions options = distributed_options(16);
  options.checkpoint.dir = dir;
  options.checkpoint.every_k_chunks = 1;
  options.checkpoint.every_n_collectives = 1;
  const RunResult r = engine.run(options);
  EXPECT_NEAR(r.energy, serial.energy, std::abs(serial.energy) * 1e-9);
  options.checkpoint.resume = true;
  const RunResult again = engine.run(options);
  EXPECT_EQ(again.energy, r.energy);
}

TEST_F(DriversTest, CilkDriverMatchesNaiveScale) {
  ApproxParams params;
  const RunResult r = Engine(fix().prep, params, GBConstants{}).run(cilk_options(4));
  EXPECT_LT(percent_error(r.energy, fix().naive_energy), 6.0);
  EXPECT_GT(r.tasks, 0u);
}

TEST_F(DriversTest, CilkDriverStableAcrossRuns) {
  // Whichever worker steals which chunk, every chunk's partial is computed
  // fresh-from-zero and the partials fold in ascending chunk order, so
  // repeated runs agree to the bit.
  ApproxParams params;
  const Engine engine(fix().prep, params, GBConstants{});
  const RunResult a = engine.run(cilk_options(4));
  const RunResult b = engine.run(cilk_options(4));
  EXPECT_EQ(a.energy, b.energy);
  EXPECT_EQ(a.born_sorted, b.born_sorted);
}

TEST_F(DriversTest, MemoryAccountingScalesWithRanks) {
  // §V-B: pure MPI with 12 ranks replicates ~6x the memory of 2x6 hybrid.
  ApproxParams params;
  const Engine engine(fix().prep, params, GBConstants{});
  RunOptions hybrid = distributed_options(2);
  hybrid.threads_per_rank = 6;
  const RunResult a = engine.run(distributed_options(12));
  const RunResult b = engine.run(hybrid);
  const double ratio = static_cast<double>(a.replicated_bytes) /
                       static_cast<double>(b.replicated_bytes);
  EXPECT_NEAR(ratio, 6.0, 0.5);
}

TEST_F(DriversTest, CommTimeGrowsWithRanks) {
  ApproxParams params;
  const Engine engine(fix().prep, params, GBConstants{});
  const RunResult a = engine.run(distributed_options(2));
  const RunResult b = engine.run(distributed_options(24));
  EXPECT_GT(b.comm_seconds, a.comm_seconds);
}

TEST_F(DriversTest, AtomBasedDivisionEnergyVariesWithRankCount) {
  // §IV-A: the atom-based division's approximation depends on the division
  // boundaries, so the energy drifts as P changes.
  ApproxParams params;
  const Engine engine(fix().prep, params, GBConstants{});
  RunOptions base = distributed_options(1);
  base.division = WorkDivision::kAtomBased;
  RunOptions split = base;
  split.ranks = 7;
  const RunResult a = engine.run(base);
  const RunResult b = engine.run(split);
  EXPECT_GT(std::abs(a.energy - b.energy), std::abs(a.energy) * 1e-10);
  // Both still approximate the true energy.
  EXPECT_LT(percent_error(a.energy, fix().naive_energy), 6.0);
  EXPECT_LT(percent_error(b.energy, fix().naive_energy), 6.0);
}

TEST_F(DriversTest, FaultFreeRunsReportZeroRetriesAndRedistribution) {
  // Regression guard: the fault accounting fields must be POPULATED (as
  // zeros) on the fault-free path, not left to whatever the caller had —
  // downstream tooling (bench metrics.json) reads them unconditionally.
  ApproxParams params;
  const Engine engine(fix().prep, params, GBConstants{});
  for (const WorkDivision division : {WorkDivision::kNodeNode, WorkDivision::kAtomBased}) {
    RunOptions options = distributed_options(4);
    options.division = division;
    const RunResult r = engine.run(options);
    EXPECT_EQ(r.retries, 0u) << "division=" << static_cast<int>(division);
    EXPECT_EQ(r.redistributed_work_items, 0u)
        << "division=" << static_cast<int>(division);
    EXPECT_FALSE(r.degraded) << "division=" << static_cast<int>(division);
    EXPECT_FALSE(r.killed);
    EXPECT_EQ(r.stalls_converted, 0);
  }
}

TEST_F(DriversTest, TimingFieldsPopulated) {
  ApproxParams params;
  RunOptions options = distributed_options(3);
  options.threads_per_rank = 2;
  const RunResult r = Engine(fix().prep, params, GBConstants{}).run(options);
  EXPECT_GT(r.compute_seconds, 0.0);
  EXPECT_GT(r.comm_seconds, 0.0);
  EXPECT_GT(r.wall_seconds, 0.0);
  EXPECT_GT(r.modeled_seconds(), r.compute_seconds);
  EXPECT_EQ(r.ranks, 3);
  EXPECT_EQ(r.threads_per_rank, 2);
}

}  // namespace
}  // namespace gbpol
