// Golden-trace replay: the tracer's payloads are keyed entirely to mpisim's
// logical clocks, so two runs with the same seed and FaultPlan must produce
// bit-identical canonicalized streams (wall time masked). A planned fault
// schedule must also show up in the trace as exactly the planned events —
// no more, no fewer.
#include <algorithm>
#include <array>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "mpisim/faults.hpp"
#include "obs/export.hpp"
#include "test_helpers.hpp"
#include "trace_helpers.hpp"

namespace gbpol {
namespace {

using testing::Fixture;
using testing::TracedRun;
using testing::events_of;
using testing::make_fixture;
using testing::run_traced;

class GoldenTraceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { fixture_ = new Fixture(make_fixture(300)); }
  static void TearDownTestSuite() { delete fixture_; }
  static const Fixture& fix() { return *fixture_; }
  static Fixture* fixture_;
};
Fixture* GoldenTraceTest::fixture_ = nullptr;

TEST_F(GoldenTraceTest, FaultFreeReplayIsBitIdentical) {
  ApproxParams params;
  RunOptions config;
  config.ranks = 4;
  const TracedRun a = run_traced(fix().prep, params, GBConstants{}, config);
  const TracedRun b = run_traced(fix().prep, params, GBConstants{}, config);
  ASSERT_GT(a.trace.total_events(), 0u);
  EXPECT_EQ(a.trace.total_dropped(), 0u);
  EXPECT_EQ(obs::canonical_dump(a.trace), obs::canonical_dump(b.trace));
  EXPECT_EQ(a.result.energy, b.result.energy);
}

// Hybrid ranks: which pool worker runs a chunk, and the workers' steal
// traffic, follow the scheduler. The rest is logical: the rank-thread
// streams replay byte for byte, and the worker chunk spans (rank, range,
// phase) form the same multiset.
std::pair<std::string, std::vector<std::array<std::uint64_t, 4>>> hybrid_replay(
    const obs::Trace& trace) {
  obs::Trace rank_threads;
  std::vector<std::array<std::uint64_t, 4>> spans;
  for (const obs::EventStream& s : trace.streams)
    if (s.worker < 0) rank_threads.streams.push_back(s);
  for (const obs::Event& e : events_of(trace, obs::EventKind::kChunkDone))
    if (e.worker >= 0) spans.push_back({static_cast<std::uint64_t>(e.rank), e.a, e.b, e.arg});
  std::sort(spans.begin(), spans.end());
  return {obs::canonical_dump(rank_threads), spans};
}

TEST_F(GoldenTraceTest, HybridReplayIsBitIdentical) {
  const RunOptions config = distributed_options(2, 2);
  const TracedRun a = run_traced(fix().prep, ApproxParams{}, GBConstants{}, config);
  const TracedRun b = run_traced(fix().prep, ApproxParams{}, GBConstants{}, config);
  ASSERT_GT(a.trace.total_events(), 0u);
  EXPECT_EQ(a.trace.total_dropped(), 0u);
  const auto replay_a = hybrid_replay(a.trace), replay_b = hybrid_replay(b.trace);
  EXPECT_FALSE(replay_a.second.empty());
  EXPECT_EQ(replay_a.first, replay_b.first);
  EXPECT_EQ(replay_a.second, replay_b.second);
  EXPECT_EQ(a.result.energy, b.result.energy);
  EXPECT_EQ(a.result.born_sorted, b.result.born_sorted);
}

TEST_F(GoldenTraceTest, FaultedReplayIsBitIdentical) {
  // A death at a collective entry exercises the abort/retry path and the
  // chunk fold's stripe recovery. Deaths are scheduled on logical
  // coordinates, so the canonical dumps must still match byte for byte. The
  // planned drop never fires: plain OCT_MPI sends no p2p message.
  ApproxParams params;
  RunOptions config;
  config.ranks = 3;
  config.faults.deaths.push_back({/*rank=*/2, /*collective_seq=*/0});
  config.faults.drops.push_back(
      {/*src=*/0, /*dst=*/1, /*send_seq=*/0, /*lost_copies=*/2});
  const TracedRun a = run_traced(fix().prep, params, GBConstants{}, config);
  const TracedRun b = run_traced(fix().prep, params, GBConstants{}, config);
  ASSERT_GT(a.trace.total_events(), 0u);
  EXPECT_TRUE(a.result.degraded);
  EXPECT_EQ(obs::canonical_dump(a.trace), obs::canonical_dump(b.trace));
  EXPECT_EQ(a.result.energy, b.result.energy);
}

TEST_F(GoldenTraceTest, PlannedFaultsAppearExactlyInTrace) {
  ApproxParams params;
  RunOptions config;
  config.ranks = 3;
  // Owned data: the Born halo exchange is the run's p2p traffic.
  config.distribution = DataDistribution::kOwned;
  config.faults.deaths.push_back({/*rank=*/2, /*collective_seq=*/0});
  // First rank0 -> rank1 send is rank 0's Born halo for rank 1; losing its
  // first two copies forces exactly two retransmit rounds at rank 1.
  config.faults.drops.push_back(
      {/*src=*/0, /*dst=*/1, /*send_seq=*/0, /*lost_copies=*/2});
  const TracedRun run = run_traced(fix().prep, params, GBConstants{}, config);

  const auto deaths = events_of(run.trace, obs::EventKind::kDeath);
  ASSERT_EQ(deaths.size(), 1u);
  EXPECT_EQ(deaths[0].rank, 2);
  EXPECT_EQ(deaths[0].a, 0u);  // the scheduled collective seq
  EXPECT_EQ(deaths[0].arg,
            static_cast<std::uint8_t>(obs::DeathCause::kScheduled));

  const auto retransmits = events_of(run.trace, obs::EventKind::kRetransmit);
  ASSERT_EQ(retransmits.size(), 2u);
  for (const obs::Event& e : retransmits) {
    EXPECT_EQ(e.rank, 1);   // the receiver observes the lost copies
    EXPECT_EQ(e.a, 0u);     // src rank
  }
  EXPECT_EQ(retransmits[0].b, 0u);  // attempt indices in order
  EXPECT_EQ(retransmits[1].b, 1u);

  // The metrics registry agrees with the event stream.
  EXPECT_EQ(run.trace.metrics.total_retransmits(), 2u);
  ASSERT_EQ(run.trace.metrics.ranks, 3);
  EXPECT_EQ(run.trace.metrics.rank_retransmits[1], 2u);

  // The dead rank's enter for seq 0 precedes its death in its own stream.
  for (const obs::EventStream& s : run.trace.streams) {
    if (s.rank != 2) continue;
    bool entered = false;
    for (const obs::Event& e : s.events) {
      if (e.kind == obs::EventKind::kCollectiveEnter && e.a == 0) entered = true;
      if (e.kind == obs::EventKind::kDeath) {
        EXPECT_TRUE(entered)
            << "death recorded before its collective enter";
      }
    }
  }
}

// The chunk-fold twin: plain OCT_MPI has no p2p traffic to drop, so a death
// at each of its collectives (0 = Born token, 1 = radii allgatherv, 2 = E_pol
// token) shows up as exactly that one death, and the answer is unchanged.
TEST_F(GoldenTraceTest, PlannedDeathsAppearExactlyInTraceOnTheChunkFold) {
  ApproxParams params;
  RunOptions clean;
  clean.mode = EngineMode::kDistributed;
  clean.ranks = 3;
  const RunResult reference = Engine(fix().prep, params, GBConstants{}).run(clean);
  for (const std::uint64_t seq : {0u, 1u, 2u}) {
    RunOptions config = clean;
    config.faults.deaths.push_back({/*rank=*/2, /*collective_seq=*/seq});
    const TracedRun run = run_traced(fix().prep, params, GBConstants{}, config);
    SCOPED_TRACE("death at collective " + std::to_string(seq));

    const auto deaths = events_of(run.trace, obs::EventKind::kDeath);
    ASSERT_EQ(deaths.size(), 1u);
    EXPECT_EQ(deaths[0].rank, 2);
    EXPECT_EQ(deaths[0].a, seq);
    EXPECT_EQ(deaths[0].arg,
              static_cast<std::uint8_t>(obs::DeathCause::kScheduled));
    EXPECT_TRUE(events_of(run.trace, obs::EventKind::kRetransmit).empty());

    EXPECT_TRUE(run.result.degraded);
    EXPECT_EQ(run.result.energy, reference.energy);
    EXPECT_EQ(run.result.born_sorted, reference.born_sorted);
    EXPECT_EQ(run.result.redistributed_work_items,
              testing::canonical_death_redistribution(fix().prep, 3, 2, seq));
  }
}

// The canonical collective sequence is a function of the distribution mode:
// replicated runs the two token allreduces around the radii allgatherv;
// owned mode replaces the allgatherv with the exact Born-extrema
// min-allreduce and the leaf-row allgatherv. Every rank's main
// stream must show exactly the expected kinds, in order, fault-free, with
// or without pool threads inside the ranks.
TEST_F(GoldenTraceTest, CollectiveKindSequenceMatchesDistributionMode) {
  for (const int threads : {1, 2}) {
    for (const DataDistribution dist :
         {DataDistribution::kReplicated, DataDistribution::kOwned}) {
      ApproxParams params;
      RunOptions config = distributed_options(4, threads);
      config.distribution = dist;
      const TracedRun run = run_traced(fix().prep, params, GBConstants{}, config);
      SCOPED_TRACE(std::string(dist == DataDistribution::kOwned ? "owned" : "replicated") +
                   " threads=" + std::to_string(threads));
      const std::vector<obs::CollKind> expected =
          testing::expected_collective_kinds(dist);
      int rank_streams = 0;
      for (const obs::EventStream& s : run.trace.streams) {
        const std::vector<obs::CollKind> kinds = testing::collective_kinds_of(s);
        if (kinds.empty()) continue;  // worker streams never enter collectives
        ++rank_streams;
        ASSERT_EQ(kinds.size(), expected.size()) << "rank " << s.rank;
        for (std::size_t i = 0; i < expected.size(); ++i)
          EXPECT_EQ(static_cast<int>(kinds[i]), static_cast<int>(expected[i]))
              << "rank " << s.rank << " collective " << i;
      }
      EXPECT_EQ(rank_streams, 4);
    }
  }
}

TEST_F(GoldenTraceTest, OwnedFaultFreeReplayIsBitIdentical) {
  ApproxParams params;
  RunOptions config;
  config.ranks = 4;
  config.distribution = DataDistribution::kOwned;
  const TracedRun a = run_traced(fix().prep, params, GBConstants{}, config);
  const TracedRun b = run_traced(fix().prep, params, GBConstants{}, config);
  ASSERT_GT(a.result.owned_bytes_per_rank, 0u);  // owned routing engaged
  ASSERT_GT(a.trace.total_events(), 0u);
  EXPECT_EQ(a.trace.total_dropped(), 0u);
  EXPECT_EQ(obs::canonical_dump(a.trace), obs::canonical_dump(b.trace));
  EXPECT_EQ(a.result.energy, b.result.energy);
}

TEST_F(GoldenTraceTest, OwnedFaultedReplayIsBitIdenticalAndExact) {
  // A death at the Born-extrema collective plus a dropped p2p copy exercise
  // the owned retry and halo-retransmit paths; the canonical dumps must
  // replay byte for byte and the energy must equal the replicated canonical
  // clean answer to the last bit.
  ApproxParams params;
  RunOptions clean;
  clean.mode = EngineMode::kDistributed;
  clean.ranks = 3;
  const RunResult replicated =
      Engine(fix().prep, params, GBConstants{}).run(clean);

  RunOptions config = clean;
  config.distribution = DataDistribution::kOwned;
  config.faults.deaths.push_back({/*rank=*/2, /*collective_seq=*/1});
  config.faults.drops.push_back(
      {/*src=*/0, /*dst=*/1, /*send_seq=*/0, /*lost_copies=*/1});
  const TracedRun a = run_traced(fix().prep, params, GBConstants{}, config);
  const TracedRun b = run_traced(fix().prep, params, GBConstants{}, config);
  ASSERT_GT(a.trace.total_events(), 0u);
  EXPECT_TRUE(a.result.degraded);
  EXPECT_EQ(obs::canonical_dump(a.trace), obs::canonical_dump(b.trace));
  EXPECT_EQ(a.result.energy, replicated.energy);
}

// Halo observability: one kHaloPlan per rank, and the per-rank sums of the
// kHaloSend/kHaloRecv byte payloads must agree with the metrics registry.
TEST_F(GoldenTraceTest, OwnedHaloEventsMatchByteMetrics) {
  constexpr int kRanks = 4;
  ApproxParams params;
  RunOptions config;
  config.ranks = kRanks;
  config.distribution = DataDistribution::kOwned;
  const TracedRun run = run_traced(fix().prep, params, GBConstants{}, config);
  ASSERT_GT(run.result.owned_bytes_per_rank, 0u);

  const auto plans = events_of(run.trace, obs::EventKind::kHaloPlan);
  EXPECT_EQ(plans.size(), static_cast<std::size_t>(kRanks));

  std::vector<std::uint64_t> sent(kRanks, 0), recv(kRanks, 0), msgs(kRanks, 0);
  for (const obs::EventStream& s : run.trace.streams) {
    for (const obs::Event& e : s.events) {
      if (e.kind == obs::EventKind::kHaloSend) {
        sent[s.rank] += e.b;
        ++msgs[s.rank];
      } else if (e.kind == obs::EventKind::kHaloRecv) {
        recv[s.rank] += e.b;
        ++msgs[s.rank];
      }
    }
  }
  ASSERT_EQ(run.trace.metrics.ranks, kRanks);
  std::uint64_t total_sent = 0;
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_EQ(run.trace.metrics.rank_halo_bytes_sent[r], sent[r]) << "rank " << r;
    EXPECT_EQ(run.trace.metrics.rank_halo_bytes_recv[r], recv[r]) << "rank " << r;
    EXPECT_EQ(run.trace.metrics.rank_halo_msgs[r], msgs[r]) << "rank " << r;
    total_sent += sent[r];
  }
  // Conservation: every byte sent is a byte received somewhere.
  std::uint64_t total_recv = 0;
  for (int r = 0; r < kRanks; ++r) total_recv += recv[r];
  EXPECT_EQ(total_sent, total_recv);
  EXPECT_GT(total_sent, 0u);  // 4 ranks on this fixture always import halo
}

TEST_F(GoldenTraceTest, FaultedEnergyMatchesFaultFree) {
  // Stripe recovery recomputes the dead rank's chunks fresh from zero, and
  // the fold sums chunk partials in ascending chunk order whoever computed
  // them; the golden schedule must therefore leave the energy bit-identical
  // (the property the fault-injection suite pins at large; re-asserted here
  // against the traced configuration specifically). The planned drop never
  // fires: plain OCT_MPI sends no p2p message.
  ApproxParams params;
  RunOptions clean;
  clean.ranks = 3;
  RunOptions faulted = clean;
  faulted.faults.deaths.push_back({2, 0});
  faulted.faults.drops.push_back({0, 1, 0, 2});
  RunOptions clean_dist = clean;
  clean_dist.mode = EngineMode::kDistributed;
  const RunResult a = Engine(fix().prep, params, GBConstants{}).run(clean_dist);
  const TracedRun b = run_traced(fix().prep, params, GBConstants{}, faulted);
  EXPECT_EQ(a.energy, b.result.energy);
}

}  // namespace
}  // namespace gbpol
