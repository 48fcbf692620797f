// Data-integrity layer (DESIGN.md "Data integrity & silent corruption"):
// checksum utility properties, seeded corruption-plan determinism, and the
// driver-level guarantee that every injected silent corruption — message
// payload, collective payload, sealed hot array, snapshot bytes — is
// detected, recovered surgically, and leaves E_pol and the Born radii
// BIT-IDENTICAL (0 ulp) to the corruption-free run. A guards-off canary
// pins the converse: with detection disabled the corrupted bytes flow
// through and the answer visibly changes.
#include "support/checksum.hpp"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "mpisim/faults.hpp"
#include "molecule/generate.hpp"
#include "surface/quadrature.hpp"
#include "test_helpers.hpp"
#include "trace_helpers.hpp"

namespace gbpol {
namespace {

using mpisim::CorruptionPlan;
using mpisim::CorruptionSchedule;

// ---------------------------------------------------------------------------
// Checksum utility

TEST(ChecksumTest, Crc32ChainsAcrossSplits) {
  const std::string text = "polarization energy on a cluster of multicores";
  const std::uint32_t whole = support::crc32(text.data(), text.size());
  for (std::size_t cut = 0; cut <= text.size(); ++cut) {
    const std::uint32_t head = support::crc32(text.data(), cut);
    const std::uint32_t chained =
        support::crc32(text.data() + cut, text.size() - cut, head);
    EXPECT_EQ(chained, whole) << "cut " << cut;
  }
}

TEST(ChecksumTest, Crc32SeesEverySingleBitFlip) {
  std::vector<std::uint8_t> bytes(64);
  for (std::size_t i = 0; i < bytes.size(); ++i)
    bytes[i] = static_cast<std::uint8_t>(37 * i + 5);
  const std::uint32_t clean = support::crc32(bytes.data(), bytes.size());
  for (std::uint64_t bit = 0; bit < bytes.size() * 8; ++bit) {
    std::vector<std::uint8_t> bad = bytes;
    support::flip_bit(bad.data(), bad.size(), bit);
    EXPECT_NE(support::crc32(bad.data(), bad.size()), clean) << "bit " << bit;
  }
}

TEST(ChecksumTest, BlockChecksumLocalizesTheFlippedBlock) {
  std::vector<double> payload(100);  // 800 bytes = 3 blocks + remainder
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = 0.5 * static_cast<double>(i) - 7.0;
  const std::size_t bytes = payload.size() * sizeof(double);
  const support::BlockChecksum expected =
      support::block_checksum(payload.data(), bytes);
  EXPECT_EQ(expected.total_bytes, bytes);
  EXPECT_EQ(expected.blocks.size(),
            (bytes + support::kChecksumBlockBytes - 1) /
                support::kChecksumBlockBytes);
  EXPECT_TRUE(support::diff_blocks(expected, payload.data(), bytes).empty());

  // Flip one bit inside each block in turn; exactly that block must differ.
  for (std::size_t b = 0; b < expected.blocks.size(); ++b) {
    std::vector<double> bad = payload;
    const std::uint64_t bit =
        static_cast<std::uint64_t>(b) * support::kChecksumBlockBytes * 8 + 13;
    support::flip_bit(bad.data(), bytes, bit);
    const std::vector<std::size_t> diff =
        support::diff_blocks(expected, bad.data(), bytes);
    ASSERT_EQ(diff.size(), 1u) << "block " << b;
    EXPECT_EQ(diff[0], b);
  }
}

TEST(ChecksumTest, TruncationCorruptsEveryBlockFromTheCut) {
  std::vector<std::uint8_t> payload(3 * support::kChecksumBlockBytes, 0xA5);
  const support::BlockChecksum expected =
      support::block_checksum(payload.data(), payload.size());
  // Cut mid-block-1: block 0 still verifies, block 1 shortens (CRC differs),
  // block 2 is gone — the tail of the larger extent is reported wholesale.
  const std::vector<std::size_t> diff =
      support::diff_blocks(expected, payload.data(), payload.size() / 2);
  EXPECT_EQ(diff, (std::vector<std::size_t>{1, 2}));
}

TEST(ChecksumTest, FlipBitIsAnInvolutionAndReducesModuloRange) {
  std::vector<std::uint8_t> bytes{0x00, 0xFF, 0x42, 0x17};
  const std::vector<std::uint8_t> original = bytes;
  support::flip_bit(bytes.data(), bytes.size(), 11);
  EXPECT_NE(bytes, original);
  support::flip_bit(bytes.data(), bytes.size(), 11);
  EXPECT_EQ(bytes, original);

  // bit is reduced modulo the range's bit count: 11 and 11 + 32 coincide.
  std::vector<std::uint8_t> a = original;
  std::vector<std::uint8_t> b = original;
  support::flip_bit(a.data(), a.size(), 11);
  support::flip_bit(b.data(), b.size(), 11 + 8 * b.size());
  EXPECT_EQ(a, b);

  support::flip_bit(nullptr, 0, 3);  // empty range: documented no-op
}

// ---------------------------------------------------------------------------
// Corruption plans & schedules

TEST(CorruptionPlanTest, SeededPlanReplaysIdentically) {
  const CorruptionPlan::RandomProfile profile;
  const CorruptionPlan a = CorruptionPlan::random(1234, 5, profile);
  const CorruptionPlan b = CorruptionPlan::random(1234, 5, profile);
  ASSERT_EQ(a.messages.size(), b.messages.size());
  for (std::size_t i = 0; i < a.messages.size(); ++i) {
    EXPECT_EQ(a.messages[i].src, b.messages[i].src);
    EXPECT_EQ(a.messages[i].dst, b.messages[i].dst);
    EXPECT_EQ(a.messages[i].send_seq, b.messages[i].send_seq);
    EXPECT_EQ(a.messages[i].bit, b.messages[i].bit);
  }
  ASSERT_EQ(a.collectives.size(), b.collectives.size());
  for (std::size_t i = 0; i < a.collectives.size(); ++i) {
    EXPECT_EQ(a.collectives[i].src, b.collectives[i].src);
    EXPECT_EQ(a.collectives[i].dst, b.collectives[i].dst);
    EXPECT_EQ(a.collectives[i].collective_seq, b.collectives[i].collective_seq);
    EXPECT_EQ(a.collectives[i].bit, b.collectives[i].bit);
  }
  ASSERT_EQ(a.hot_arrays.size(), b.hot_arrays.size());
  for (std::size_t i = 0; i < a.hot_arrays.size(); ++i) {
    EXPECT_EQ(a.hot_arrays[i].rank, b.hot_arrays[i].rank);
    EXPECT_EQ(a.hot_arrays[i].phase, b.hot_arrays[i].phase);
    EXPECT_EQ(a.hot_arrays[i].chunk, b.hot_arrays[i].chunk);
    EXPECT_EQ(a.hot_arrays[i].bit, b.hot_arrays[i].bit);
  }
  ASSERT_EQ(a.snapshots.size(), b.snapshots.size());

  // Coordinates stay inside the rank/horizon boxes the profile promises.
  for (const CorruptionPlan::Message& m : a.messages) {
    EXPECT_GE(m.src, 0);
    EXPECT_LT(m.src, 5);
    EXPECT_GE(m.dst, 0);
    EXPECT_LT(m.dst, 5);
    EXPECT_NE(m.src, m.dst);
    EXPECT_LT(m.send_seq, profile.send_seq_horizon);
  }
  for (const CorruptionPlan::HotArray& h : a.hot_arrays) {
    EXPECT_GE(h.rank, 0);
    EXPECT_LT(h.rank, 5);
    EXPECT_LE(h.phase, CorruptionPlan::kEpolPartials);
    EXPECT_LT(h.chunk, profile.chunk_horizon);
  }
}

TEST(CorruptionPlanTest, ScheduleLookupHitsPlantedCoordinatesOnly) {
  CorruptionPlan plan;
  plan.messages.push_back({.src = 1, .dst = 2, .send_seq = 3, .bit = 17});
  plan.collectives.push_back(
      {.src = 0, .dst = 2, .collective_seq = 1, .bit = 5});
  plan.hot_arrays.push_back({.rank = 2,
                             .phase = CorruptionPlan::kEpolPartials,
                             .chunk = 4,
                             .bit = 9});
  plan.snapshots.push_back({.rank = 1, .ordinal = 0, .bit = 77});
  const CorruptionSchedule sched(plan, 3);
  EXPECT_FALSE(sched.empty());

  std::uint64_t bit = 0;
  EXPECT_TRUE(sched.message_bit(1, 2, 3, &bit));
  EXPECT_EQ(bit, 17u);
  EXPECT_FALSE(sched.message_bit(1, 2, 2, &bit));  // wrong seq
  EXPECT_FALSE(sched.message_bit(2, 1, 3, &bit));  // reversed link

  EXPECT_TRUE(sched.collective_bit(0, 2, 1, &bit));
  EXPECT_EQ(bit, 5u);
  EXPECT_FALSE(sched.collective_bit(0, 2, 0, &bit));
  EXPECT_FALSE(sched.collective_bit(2, 0, 1, &bit));

  EXPECT_TRUE(
      sched.hot_array_bit(2, CorruptionPlan::kEpolPartials, 4, &bit));
  EXPECT_EQ(bit, 9u);
  EXPECT_FALSE(
      sched.hot_array_bit(2, CorruptionPlan::kBornPartials, 4, &bit));
  EXPECT_FALSE(
      sched.hot_array_bit(1, CorruptionPlan::kEpolPartials, 4, &bit));

  EXPECT_TRUE(sched.snapshot_bit(1, 0, &bit));
  EXPECT_EQ(bit, 77u);
  EXPECT_FALSE(sched.snapshot_bit(1, 1, &bit));
  EXPECT_FALSE(sched.snapshot_bit(0, 0, &bit));

  EXPECT_TRUE(CorruptionSchedule(CorruptionPlan{}, 3).empty());
}

// ---------------------------------------------------------------------------
// Driver-level detection + surgical recovery (0 ulp)

class IntegrityDriverTest : public ::testing::Test {
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

  // Canonical chunk-fold, replicated data: corrupted and clean runs share
  // the fold order.
  static RunOptions balanced_config(int ranks) {
    RunOptions config;
    config.mode = EngineMode::kDistributed;
    config.ranks = ranks;
    config.division = WorkDivision::kNodeNode;
    config.balance_chunk_leaves = 2;
    return config;
  }

  // Owned-mode spatial decomposition: halo exchange and the final Born
  // gather run through the checksummed p2p framing.
  static RunOptions owned_config(int ranks) {
    RunOptions config = balanced_config(ranks);
    config.distribution = DataDistribution::kOwned;
    return config;
  }

  static RunResult run(const RunOptions& config) {
    return Engine(*prep_, ApproxParams{}, GBConstants{}).run(config);
  }

  static void expect_bit_identical(const RunResult& a, const RunResult& b) {
    EXPECT_EQ(a.energy, b.energy);  // exact: 0 ulp
    ASSERT_EQ(a.born_sorted.size(), b.born_sorted.size());
    for (std::size_t i = 0; i < a.born_sorted.size(); ++i)
      ASSERT_EQ(a.born_sorted[i], b.born_sorted[i]) << "born slot " << i;
  }

  // Hot-array flips for every (rank, phase) at chunks {0, 1}: each chunk
  // has exactly one executor, so per phase exactly two events fire no
  // matter which rank the plan lands on.
  static CorruptionPlan hot_array_plan(int ranks) {
    CorruptionPlan plan;
    for (int r = 0; r < ranks; ++r)
      for (const std::uint32_t phase :
           {CorruptionPlan::kBornPartials, CorruptionPlan::kEpolPartials})
        for (const std::uint32_t chunk : {0u, 1u})
          plan.hot_arrays.push_back({.rank = r,
                                     .phase = phase,
                                     .chunk = chunk,
                                     .bit = 51 + 64 * chunk});
    return plan;
  }

  static Molecule* mol_;
  static surface::SurfaceQuadrature* quad_;
  static Prepared* prep_;
};
Molecule* IntegrityDriverTest::mol_ = nullptr;
surface::SurfaceQuadrature* IntegrityDriverTest::quad_ = nullptr;
Prepared* IntegrityDriverTest::prep_ = nullptr;

TEST_F(IntegrityDriverTest, HotArrayCorruptionRecomputesExactlyReplicated) {
  const RunResult clean = run(balanced_config(3));
  ASSERT_NE(clean.energy, 0.0);
  EXPECT_EQ(clean.corruption_injected, 0u);

  RunOptions config = balanced_config(3);
  config.corruption = hot_array_plan(3);
  const RunResult corrupted = run(config);
  expect_bit_identical(corrupted, clean);
  EXPECT_GE(corrupted.corruption_injected, 2u);
  EXPECT_EQ(corrupted.corruption_detected, corrupted.corruption_injected);
  EXPECT_EQ(corrupted.corruption_recomputed, corrupted.corruption_detected);
  EXPECT_EQ(corrupted.corruption_retransmits, 0u);
}

TEST_F(IntegrityDriverTest, HotArrayCorruptionRecomputesExactlyOwned) {
  const RunResult clean = run(owned_config(3));
  ASSERT_NE(clean.energy, 0.0);

  RunOptions config = owned_config(3);
  config.corruption = hot_array_plan(3);
  const RunResult corrupted = run(config);
  expect_bit_identical(corrupted, clean);
  EXPECT_GE(corrupted.corruption_injected, 2u);
  EXPECT_EQ(corrupted.corruption_detected, corrupted.corruption_injected);
  EXPECT_EQ(corrupted.corruption_recomputed, corrupted.corruption_detected);
}

TEST_F(IntegrityDriverTest, MessageCorruptionRetransmitsExactlyOwned) {
  const RunResult clean = run(owned_config(3));

  // Owned mode moves real bytes: halo pushes plus the final Born gather to
  // the writer rank. Blanket every link's first two sends; only the
  // coordinates that exist fire, and each fires at most once.
  RunOptions config = owned_config(3);
  for (int src = 0; src < 3; ++src)
    for (int dst = 0; dst < 3; ++dst) {
      if (src == dst) continue;
      for (const std::uint64_t seq : {0u, 1u})
        config.corruption.messages.push_back({.src = src,
                                              .dst = dst,
                                              .send_seq = seq,
                                              .bit = 7 + 13 * seq});
    }
  const RunResult corrupted = run(config);
  expect_bit_identical(corrupted, clean);
  EXPECT_GE(corrupted.corruption_injected, 1u);
  EXPECT_EQ(corrupted.corruption_detected, corrupted.corruption_injected);
  EXPECT_EQ(corrupted.corruption_retransmits, corrupted.corruption_detected);
  EXPECT_EQ(corrupted.corruption_recomputed, 0u);
  EXPECT_GE(corrupted.retries, corrupted.corruption_retransmits);
}

TEST_F(IntegrityDriverTest, CollectiveCorruptionReReadsExactlyReplicated) {
  const RunResult clean = run(balanced_config(3));

  // Flip the copies rank 0 and rank 1 read of their peers' collective
  // payloads across the first few collective seqs. Retried collectives get
  // fresh seqs, so each planted coordinate fires at most once.
  RunOptions config = balanced_config(3);
  for (const int dst : {0, 1})
    for (int src = 0; src < 3; ++src) {
      if (src == dst) continue;
      for (std::uint64_t seq = 0; seq < 4; ++seq)
        config.corruption.collectives.push_back(
            {.src = src, .dst = dst, .collective_seq = seq, .bit = 3 + seq});
    }
  const RunResult corrupted = run(config);
  expect_bit_identical(corrupted, clean);
  EXPECT_GE(corrupted.corruption_injected, 1u);
  EXPECT_EQ(corrupted.corruption_detected, corrupted.corruption_injected);
  EXPECT_EQ(corrupted.corruption_retransmits, corrupted.corruption_detected);
  EXPECT_EQ(corrupted.corruption_recomputed, 0u);
}

TEST_F(IntegrityDriverTest, GuardsDisabledCanaryChangesTheAnswer) {
  const RunResult clean = run(balanced_config(3));

  // Exponent-region flips in the sealed Born and E_pol partials. With the
  // guards off nothing may notice: injections count, detections stay zero,
  // and the corrupted bits must visibly reach the folded answer.
  RunOptions config = balanced_config(3);
  config.corruption = hot_array_plan(3);
  config.integrity_guards = false;
  const RunResult corrupted = run(config);
  EXPECT_GE(corrupted.corruption_injected, 2u);
  EXPECT_EQ(corrupted.corruption_detected, 0u);
  EXPECT_EQ(corrupted.corruption_recomputed, 0u);

  bool differs = corrupted.energy != clean.energy;
  ASSERT_EQ(corrupted.born_sorted.size(), clean.born_sorted.size());
  for (std::size_t i = 0; i < clean.born_sorted.size() && !differs; ++i)
    differs = corrupted.born_sorted[i] != clean.born_sorted[i];
  EXPECT_TRUE(differs) << "undetected corruption silently vanished";
}

TEST_F(IntegrityDriverTest, CorruptSnapshotsNeverPoisonAResume) {
  const RunResult clean = run(balanced_config(3));

  // Checkpointed run, killed mid-Born, with every snapshot rank 0 and rank
  // 1 write flipped as it lands on disk.
  RunOptions config = balanced_config(3);
  config.checkpoint.dir = testing::fresh_temp_dir("integrity_snap");
  config.checkpoint.every_k_chunks = 1;
  config.kill = {.armed = true, .rank = 1, .collective_seq = 0, .tick = 3};
  for (const int r : {0, 1})
    for (std::uint64_t ordinal = 0; ordinal < 8; ++ordinal)
      config.corruption.snapshots.push_back(
          {.rank = r, .ordinal = ordinal, .bit = 200 + ordinal});
  const RunResult killed = run(config);
  EXPECT_TRUE(killed.killed);
  EXPECT_GE(killed.corruption_injected, 1u);

  // Resume with a clean plan (the job key depends only on the guard
  // configuration, not the schedule): the ckpt CRC must reject every
  // flipped file and the fallback ladder — older cursor, older phase, cold
  // start — must still land on the exact answer.
  config.kill = {};
  config.corruption = {};
  config.checkpoint.resume = true;
  const RunResult resumed = run(config);
  EXPECT_FALSE(resumed.killed);
  expect_bit_identical(resumed, clean);
}

#if GBPOL_TRACING_ENABLED
TEST_F(IntegrityDriverTest, MetricsCountersReconcileWithRunResult) {
  RunOptions config = balanced_config(3);
  config.corruption = hot_array_plan(3);
  for (int src = 1; src < 3; ++src)
    for (std::uint64_t seq = 0; seq < 3; ++seq)
      config.corruption.collectives.push_back(
          {.src = src, .dst = 0, .collective_seq = seq, .bit = 19});
  const gbpol::testing::TracedRun traced = gbpol::testing::run_traced(
      *prep_, ApproxParams{}, GBConstants{}, config);
  const obs::MetricsSnapshot& m = traced.trace.metrics;
  EXPECT_EQ(m.total_corruption_injected(), traced.result.corruption_injected);
  EXPECT_EQ(m.total_corruption_detected(), traced.result.corruption_detected);
  EXPECT_EQ(m.total_corruption_recomputed(),
            traced.result.corruption_recomputed);
  EXPECT_EQ(m.total_corruption_retransmits(),
            traced.result.corruption_retransmits);
  EXPECT_GE(traced.result.corruption_injected, 3u);

  // Every detection and recovery leaves a trace event at its site.
  using gbpol::testing::events_of;
  EXPECT_EQ(events_of(traced.trace, obs::EventKind::kCorruptionInject).size(),
            traced.result.corruption_injected);
  EXPECT_EQ(events_of(traced.trace, obs::EventKind::kCorruptionDetect).size(),
            traced.result.corruption_detected);
  EXPECT_EQ(events_of(traced.trace, obs::EventKind::kCorruptionRecompute).size(),
            traced.result.corruption_recomputed);
}
#endif  // GBPOL_TRACING_ENABLED

// ---------------------------------------------------------------------------
// Non-finite guards on the JSON surfaces

TEST(JsonIntegrityTest, NonFiniteDoublesDumpAsNull) {
  EXPECT_EQ(obs::json::Value(std::numeric_limits<double>::quiet_NaN()).dump(),
            "null");
  EXPECT_EQ(obs::json::Value(std::numeric_limits<double>::infinity()).dump(),
            "null");
  EXPECT_EQ(obs::json::Value(1.5).dump(), "1.5");
}

TEST(JsonIntegrityTest, ParserRejectsOverflowingNumbers) {
  EXPECT_FALSE(obs::json::parse("1e999").ok);
  EXPECT_FALSE(obs::json::parse("[-1e999]").ok);
  EXPECT_TRUE(obs::json::parse("1e300").ok);
}

TEST(JsonIntegrityTest, RunResultWithNanEnergyIsFlaggedAndRejected) {
  RunResult result;
  result.energy = std::numeric_limits<double>::quiet_NaN();
  result.born_sorted = {1.0, 2.0};
  const std::string text = run_result_to_json(result, "nan_canary").dump();
  EXPECT_NE(text.find("non_finite_fields"), std::string::npos);
  EXPECT_NE(text.find("energy"), std::string::npos);

  const RunResultParse parsed = run_result_from_string(text);
  EXPECT_FALSE(parsed.ok);
  EXPECT_NE(parsed.error.find("non-finite"), std::string::npos);

  // A finite result still round-trips.
  result.energy = -42.5;
  const RunResultParse good =
      run_result_from_string(run_result_to_json(result, "ok").dump());
  ASSERT_TRUE(good.ok);
  EXPECT_EQ(good.doc.energy, -42.5);
}

}  // namespace
}  // namespace gbpol
