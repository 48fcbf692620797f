// Shared helpers for the trace-labeled tests: run a driver inside a tracer
// session, slice the resulting streams, and check the structural invariants
// the observability layer guarantees (see DESIGN.md "Observability").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"

namespace gbpol::testing {

struct TracedRun {
  RunResult result;
  obs::Trace trace;
};

inline TracedRun run_traced(const Prepared& prep, const ApproxParams& params,
                            const GBConstants& constants,
                            const RunOptions& options,
                            const obs::TraceConfig& tc = {}) {
  RunOptions distributed = options;
  distributed.mode = EngineMode::kDistributed;
  obs::start_session(tc);
  TracedRun out;
  out.result = Engine(prep, params, constants).run(distributed);
  out.trace = obs::stop_session();
  return out;
}

// Events of one kind across every stream.
inline std::vector<obs::Event> events_of(const obs::Trace& trace,
                                         obs::EventKind kind) {
  std::vector<obs::Event> out;
  for (const obs::EventStream& s : trace.streams)
    for (const obs::Event& e : s.events)
      if (e.kind == kind) out.push_back(e);
  return out;
}

// Fault-free collective-enter CollKind sequence a surviving rank emits on
// the canonical chunk-fold drivers, keyed by distribution mode. Cost-only
// accounting (Comm::charge_collective) emits no enter events, so these are
// the REAL collectives only: the Born and Epol phase-sync token allreduces,
// with the replicated radii allgatherv between them — or, owned, the exact
// Born-extrema min-allreduce and the owned-leaf-row allgatherv.
inline std::vector<obs::CollKind> expected_collective_kinds(DataDistribution d) {
  using obs::CollKind;
  if (d == DataDistribution::kOwned)
    return {CollKind::kAllreduce,    // Born phase sync
            CollKind::kAllreduce,    // Born extrema (allreduce_min pair)
            CollKind::kAllgatherv,   // owned leaf bin rows
            CollKind::kAllreduce};   // Epol phase sync
  return {CollKind::kAllreduce,      // Born phase sync
          CollKind::kAllgatherv,     // pushed Born radii
          CollKind::kAllreduce};     // Epol phase sync
}

// The observed enter-kind sequence of one stream (empty for worker streams,
// which never enter collectives).
inline std::vector<obs::CollKind> collective_kinds_of(const obs::EventStream& s) {
  std::vector<obs::CollKind> out;
  for (const obs::Event& e : s.events)
    if (e.kind == obs::EventKind::kCollectiveEnter)
      out.push_back(static_cast<obs::CollKind>(e.arg));
  return out;
}

// --- structural invariant checks ----------------------------------------
// Each returns an empty string on success, else a description of the first
// violation (so gtest failure messages point at the broken event).

// Per rank-thread stream: collective seqs strictly monotonic (+1 steps from
// 0) and every kCollectiveEnter closed by exactly one of exit / abort /
// stall-park / death carrying the same seq before the next enter.
inline std::string check_collective_invariants(const obs::EventStream& s) {
  bool open = false;
  std::uint64_t open_seq = 0;
  std::uint64_t next_seq = 0;
  for (const obs::Event& e : s.events) {
    switch (e.kind) {
      case obs::EventKind::kCollectiveEnter:
        if (open)
          return "rank " + std::to_string(s.rank) + ": enter seq " +
                 std::to_string(e.a) + " while seq " +
                 std::to_string(open_seq) + " still open";
        if (e.a != next_seq)
          return "rank " + std::to_string(s.rank) +
                 ": non-monotonic collective seq " + std::to_string(e.a) +
                 " (expected " + std::to_string(next_seq) + ")";
        open = true;
        open_seq = e.a;
        ++next_seq;
        break;
      case obs::EventKind::kCollectiveExit:
      case obs::EventKind::kCollectiveAbort:
      case obs::EventKind::kStallPark:
      case obs::EventKind::kDeath:
        // kDeath at a collective entry carries that collective's seq; an
        // abandon() outside any collective (kill poll) carries the clock
        // value with nothing open, which is fine — death ends the stream.
        if (open) {
          if (e.a != open_seq)
            return "rank " + std::to_string(s.rank) + ": close seq " +
                   std::to_string(e.a) + " != open seq " +
                   std::to_string(open_seq);
          open = false;
        }
        break;
      default:
        break;
    }
  }
  // A stream may end with an open collective only if the rank died inside it
  // (handled above: death closes). Surviving ranks close everything.
  if (open)
    return "rank " + std::to_string(s.rank) + ": stream ends with seq " +
           std::to_string(open_seq) + " open";
  return {};
}

// Per stream: phase begin/end strictly alternate and ids match (phase_begin
// auto-close makes overlap structurally impossible; this pins it).
inline std::string check_phase_invariants(const obs::EventStream& s) {
  bool open = false;
  std::uint8_t open_phase = 0;
  for (const obs::Event& e : s.events) {
    if (e.kind == obs::EventKind::kPhaseBegin) {
      if (open)
        return "stream rank " + std::to_string(s.rank) + " worker " +
               std::to_string(s.worker) + ": phase " +
               std::to_string(e.arg) + " begins inside phase " +
               std::to_string(open_phase);
      open = true;
      open_phase = e.arg;
    } else if (e.kind == obs::EventKind::kPhaseEnd) {
      if (!open)
        return "stream rank " + std::to_string(s.rank) +
               ": phase end without begin";
      if (e.arg != open_phase)
        return "stream rank " + std::to_string(s.rank) + ": phase end " +
               std::to_string(e.arg) + " != open " +
               std::to_string(open_phase);
      open = false;
    }
  }
  if (open)
    return "stream rank " + std::to_string(s.rank) +
           ": phase " + std::to_string(open_phase) + " never ends";
  return {};
}

// Per stream: chunk spans never nest — every kChunkDispatch is closed by
// its kChunkDone (same range and phase) before the next chunk event, on rank
// threads and pool workers alike.
inline std::string check_chunk_invariants(const obs::EventStream& s) {
  const obs::Event* open = nullptr;
  for (const obs::Event& e : s.events) {
    if (e.kind != obs::EventKind::kChunkDispatch && e.kind != obs::EventKind::kChunkDone)
      continue;
    const bool opens = e.kind == obs::EventKind::kChunkDispatch;
    if (opens == (open != nullptr) ||
        (!opens && (open->a != e.a || open->b != e.b || open->arg != e.arg)))
      return "stream rank " + std::to_string(s.rank) + " worker " +
             std::to_string(s.worker) + ": unmatched chunk span";
    open = opens ? &e : nullptr;
  }
  return open == nullptr ? std::string() : "chunk span never done";
}

// Per worker stream: every kStealSuccess is the tail of a contiguous
// (kPopMiss, kStealAttempt victim, kStealSuccess victim) triplet — the
// thief-side pairing the scheduler emits.
inline std::string check_steal_invariants(const obs::EventStream& s) {
  for (std::size_t i = 0; i < s.events.size(); ++i) {
    if (s.events[i].kind != obs::EventKind::kStealSuccess) continue;
    if (i < 2)
      return "steal success at stream start (worker " +
             std::to_string(s.worker) + ")";
    const obs::Event& attempt = s.events[i - 1];
    const obs::Event& miss = s.events[i - 2];
    if (attempt.kind != obs::EventKind::kStealAttempt ||
        attempt.a != s.events[i].a)
      return "steal success without matching attempt (worker " +
             std::to_string(s.worker) + ")";
    if (miss.kind != obs::EventKind::kPopMiss)
      return "steal success without preceding pop miss (worker " +
             std::to_string(s.worker) + ")";
  }
  return {};
}

// Per rank stream: every kKillPoll is guarded by at least one
// kCheckpointCommit since the previous kKillPoll (valid when the run uses
// every_k_chunks == 1 with checkpointing enabled — each chunk commits its
// snapshot before polling).
inline std::string check_commit_before_poll(const obs::EventStream& s) {
  int commits_since_poll = 0;
  for (const obs::Event& e : s.events) {
    if (e.kind == obs::EventKind::kCheckpointCommit) {
      ++commits_since_poll;
    } else if (e.kind == obs::EventKind::kKillPoll) {
      if (commits_since_poll == 0)
        return "rank " + std::to_string(s.rank) + ": kill poll at tick " +
               std::to_string(e.b) + " without a preceding commit";
      commits_since_poll = 0;
    }
  }
  return {};
}

}  // namespace gbpol::testing
