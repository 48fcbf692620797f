// Structural invariants of the event streams, fault-free and under several
// deterministic fault schedules:
//   * per-rank collective seqs strictly monotonic, every enter matched by
//     exactly one exit/abort/stall-park/death with the same seq;
//   * steal successes appear only as the thief-side triplet
//     (pop-miss, attempt, success) on one victim;
//   * per-thread phase intervals never overlap (begin/end alternate);
//   * every kill poll is covered by a checkpoint commit since the previous
//     poll (progress is durable at every possible kill point).
#include <array>
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "mpisim/faults.hpp"
#include "test_helpers.hpp"
#include "trace_helpers.hpp"

namespace gbpol {
namespace {

namespace fs = std::filesystem;

using testing::Fixture;
using testing::TracedRun;
using testing::events_of;
using testing::make_fixture;
using testing::run_traced;

class TraceInvariantsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { fixture_ = new Fixture(make_fixture(300)); }
  static void TearDownTestSuite() { delete fixture_; }
  static const Fixture& fix() { return *fixture_; }
  static Fixture* fixture_;
};
Fixture* TraceInvariantsTest::fixture_ = nullptr;

void expect_stream_invariants(const obs::Trace& trace) {
  for (const obs::EventStream& s : trace.streams) {
    if (s.worker < 0) {  // rank/main threads own the collective clocks
      EXPECT_EQ(testing::check_collective_invariants(s), "");
    }
    EXPECT_EQ(testing::check_phase_invariants(s), "");
    EXPECT_EQ(testing::check_chunk_invariants(s), "");
    EXPECT_EQ(testing::check_steal_invariants(s), "");
  }
}

TEST_F(TraceInvariantsTest, FaultFreeDistributedRun) {
  ApproxParams params;
  RunOptions config;
  config.ranks = 4;
  const TracedRun run = run_traced(fix().prep, params, GBConstants{}, config);
  ASSERT_GT(run.trace.total_events(), 0u);
  EXPECT_EQ(run.trace.total_dropped(), 0u);
  expect_stream_invariants(run.trace);
  // Every rank participates in the same globally ordered collective
  // schedule: all four streams record the same number of enters.
  std::size_t enters_rank0 = 0;
  for (const obs::EventStream& s : run.trace.streams) {
    if (s.rank < 0) continue;  // host thread: only run begin/end markers
    std::size_t enters = 0;
    for (const obs::Event& e : s.events)
      if (e.kind == obs::EventKind::kCollectiveEnter) ++enters;
    if (s.rank == 0) enters_rank0 = enters;
    EXPECT_GT(enters, 0u) << "rank " << s.rank;
  }
  EXPECT_GT(enters_rank0, 0u);
  for (const obs::EventStream& s : run.trace.streams) {
    if (s.rank < 0) continue;
    std::size_t enters = 0;
    for (const obs::Event& e : s.events)
      if (e.kind == obs::EventKind::kCollectiveEnter) ++enters;
    EXPECT_EQ(enters, enters_rank0) << "rank " << s.rank;
  }
}

TEST_F(TraceInvariantsTest, HoldUnderRandomFaultSchedules) {
  // Three distinct seeded schedules (delays, drops, stragglers, deaths —
  // RandomProfile never emits stalls, so no supervisor is needed). The
  // invariants must hold on every survivor's and every victim's stream.
  ApproxParams params;
  const mpisim::FaultPlan::RandomProfile profile;
  for (const std::uint64_t seed : {11ull, 22ull, 33ull}) {
    RunOptions config;
    config.ranks = 4;
    config.faults = mpisim::FaultPlan::random(seed, config.ranks, profile);
    const TracedRun run =
        run_traced(fix().prep, params, GBConstants{}, config);
    ASSERT_GT(run.trace.total_events(), 0u) << "seed " << seed;
    expect_stream_invariants(run.trace);
    // Death events (if the schedule drew any) carry the scheduled cause.
    for (const obs::Event& e : events_of(run.trace, obs::EventKind::kDeath))
      EXPECT_EQ(e.arg, static_cast<std::uint8_t>(obs::DeathCause::kScheduled))
          << "seed " << seed;
  }
}

// Hybrid ranks run their Born and E_pol chunks on pool workers: each chunk
// span appears exactly once, on a worker stream that carries its rank, and
// every stream keeps the invariants.
TEST_F(TraceInvariantsTest, HybridChunkSpansLiveOnWorkerStreams) {
  const TracedRun run =
      run_traced(fix().prep, ApproxParams{}, GBConstants{}, distributed_options(2, 2));
  EXPECT_EQ(run.trace.total_dropped(), 0u);
  expect_stream_invariants(run.trace);
  std::uint64_t spans = 0;
  for (const obs::Event& e : events_of(run.trace, obs::EventKind::kChunkDone)) {
    if (e.arg == static_cast<std::uint8_t>(obs::PhaseId::kPush)) continue;
    EXPECT_GE(e.worker, 0);
    EXPECT_GE(e.rank, 0);
    ++spans;
  }
  const auto n_chunks = [](std::size_t leaves) {
    return make_chunk_plan(static_cast<std::uint32_t>(leaves), 4, 0).n_chunks;
  };
  EXPECT_EQ(spans, n_chunks(fix().prep.q_tree.leaves().size()) +
                       n_chunks(fix().prep.atoms_tree.leaves().size()));
}

// Under kSteal a hybrid rank fires each planned steal at its slot of the
// order, between the same kill polls as a one-thread rank walking the same
// plan (fixed chunk geometry, so 4 x 2 and 4 x 1 plan identically).
TEST_F(TraceInvariantsTest, HybridStealsFallAtThePlannedSlots) {
  const auto rank_walk = [](const obs::Trace& trace, int rank) {
    std::vector<std::array<std::uint64_t, 3>> out;
    for (const obs::EventStream& s : trace.streams) {
      if (s.rank != rank || s.worker >= 0) continue;
      for (const obs::Event& e : s.events)
        if (e.kind == obs::EventKind::kStealRequest || e.kind == obs::EventKind::kStealGrant ||
            e.kind == obs::EventKind::kKillPoll || e.kind == obs::EventKind::kCollectiveEnter)
          out.push_back({static_cast<std::uint64_t>(e.kind), e.a, e.b});
    }
    return out;
  };
  RunOptions one = distributed_options(4);
  one.balance = BalancePolicy::kSteal;
  one.balance_chunk_leaves = 1;
  RunOptions hybrid = one;
  hybrid.threads_per_rank = 2;
  const TracedRun a = run_traced(fix().prep, ApproxParams{}, GBConstants{}, one);
  const TracedRun b = run_traced(fix().prep, ApproxParams{}, GBConstants{}, hybrid);
  EXPECT_GT(a.result.steal_grants, 0u);
  EXPECT_EQ(b.result.steal_grants, a.result.steal_grants);
  EXPECT_EQ(b.result.energy, a.result.energy);
  EXPECT_EQ(events_of(b.trace, obs::EventKind::kStealRequest).size(),
            events_of(a.trace, obs::EventKind::kStealRequest).size());
  for (int r = 0; r < 4; ++r) {
    SCOPED_TRACE("rank " + std::to_string(r));
    EXPECT_FALSE(rank_walk(a.trace, r).empty());
    EXPECT_EQ(rank_walk(b.trace, r), rank_walk(a.trace, r));
  }
}

TEST_F(TraceInvariantsTest, StealTripletsInSharedMemoryRun) {
  ApproxParams params;
  obs::start_session();
  const RunResult r = Engine(fix().prep, params, GBConstants{}).run(cilk_options(4));
  const obs::Trace trace = obs::stop_session();
  EXPECT_GT(r.tasks, 0u);
  expect_stream_invariants(trace);
  // Idle workers probe constantly; the counters must have seen traffic even
  // if no steal happened to succeed.
  EXPECT_GT(trace.metrics.steal_attempts, 0u);
  EXPECT_GE(trace.metrics.steal_attempts, trace.metrics.steal_successes);
  // Every traced success sits in a worker (not rank-thread) stream.
  for (const obs::Event& e :
       events_of(trace, obs::EventKind::kStealSuccess))
    EXPECT_GE(e.worker, 0);
}

TEST_F(TraceInvariantsTest, PhaseBracketsCoverTheSchedule) {
  // A fault-free node-node run walks all six pipeline phases on every rank.
  ApproxParams params;
  RunOptions config;
  config.ranks = 3;
  const TracedRun run = run_traced(fix().prep, params, GBConstants{}, config);
  for (const obs::EventStream& s : run.trace.streams) {
    if (s.rank < 0 || s.worker >= 0) continue;
    bool seen[obs::kPhaseCount] = {};
    for (const obs::Event& e : s.events)
      if (e.kind == obs::EventKind::kPhaseBegin) seen[e.arg] = true;
    for (const obs::PhaseId p :
         {obs::PhaseId::kBornAccum, obs::PhaseId::kBornReduce,
          obs::PhaseId::kPush, obs::PhaseId::kBornGather, obs::PhaseId::kEpol,
          obs::PhaseId::kEpolReduce}) {
      EXPECT_TRUE(seen[static_cast<int>(p)])
          << "rank " << s.rank << " never entered " << obs::phase_name(p);
    }
  }
}

TEST_F(TraceInvariantsTest, CheckpointCommitPrecedesEveryKillPoll) {
  // every_k_chunks = 1 makes each chunk commit its snapshot before the kill
  // poll that follows it, so a kill can never observe un-snapshotted
  // progress. The trace must show that ordering on every rank, hybrid ranks
  // (whose rank thread records chunks as the pool completes them) included.
  for (const int threads : {1, 2}) {
    SCOPED_TRACE("threads_per_rank " + std::to_string(threads));
    const fs::path dir = testing::fresh_temp_dir("gbpol_trace_ckpt");
    ApproxParams params;
    RunOptions config;
    config.ranks = 3;
    config.threads_per_rank = threads;
    config.checkpoint.dir = dir.string();
    config.checkpoint.every_k_chunks = 1;
    config.checkpoint.every_n_collectives = 1;
    const TracedRun run = run_traced(fix().prep, params, GBConstants{}, config);
    ASSERT_FALSE(run.result.killed);
    const auto polls = events_of(run.trace, obs::EventKind::kKillPoll);
    const auto commits =
        events_of(run.trace, obs::EventKind::kCheckpointCommit);
    ASSERT_GT(polls.size(), 0u);
    ASSERT_GT(commits.size(), 0u);
    for (const obs::EventStream& s : run.trace.streams)
      EXPECT_EQ(testing::check_commit_before_poll(s), "");
    fs::remove_all(dir);
  }
}

}  // namespace
}  // namespace gbpol
