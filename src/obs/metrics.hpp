// Counters / histograms metrics registry for the observability layer.
//
// The registry lives inside the tracer session (obs/trace.hpp) and is
// merged into a MetricsSnapshot when the session stops. Writers fall into
// two classes, chosen so the registry needs no locks on any hot path:
//
//   * per-rank slots (phase busy/wall seconds, per-collective counts/bytes/
//     modeled latency, retransmits, chunk service totals) — written only by
//     the owning rank's thread; the post-join drain in stop_session reads
//     them race-free.
//   * global counters (steal attempts/successes, pop misses, the chunk
//     service-time histogram) — relaxed atomics, touched by pool workers.
//
// "Merging across ranks at finalize" is therefore structural: every rank
// writes its own slot during the run and the snapshot aggregates the slots
// after the ranks have joined.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#ifndef GBPOL_TRACING_ENABLED
#define GBPOL_TRACING_ENABLED 1
#endif

namespace gbpol::obs {

// Collective flavour, for per-kind byte/latency metrics.
enum class CollKind : std::uint8_t {
  kBarrier = 0,
  kAllreduce,
  kReduce,
  kBcast,
  kAllgatherv,
  kCount,
};
inline constexpr int kCollKindCount = static_cast<int>(CollKind::kCount);
const char* coll_kind_name(CollKind k);

// Driver phases, in schedule order (mirrors core/drivers.cpp Fig. 4 steps).
enum class PhaseId : std::uint8_t {
  kBornAccum = 0,  // step 2: approximated integrals
  kBornReduce,     // step 3: allreduce (+ death recovery)
  kPush,           // step 4: Born radii for this rank's atoms
  kBornGather,     // step 5: allgatherv (+ dead ranks' radii by proxy)
  kEpol,           // step 6: partial energy
  kEpolReduce,     // step 7: reduce to root (+ death recovery)
  kOther,          // anything outside an explicit phase bracket
  kCount,
};
inline constexpr int kPhaseCount = static_cast<int>(PhaseId::kCount);
const char* phase_name(PhaseId p);

// Log2 service-time histogram: bin i counts chunks whose wall service time
// in nanoseconds satisfies 2^i <= ns < 2^(i+1) (bin 0 also takes ns < 2).
inline constexpr int kServiceHistBins = 48;
int service_hist_bin(std::uint64_t ns);

// Immutable aggregate produced by stop_session. `ranks` is the number of
// per-rank slots that saw any activity (max active rank + 1).
struct MetricsSnapshot {
  int ranks = 0;

  // Per rank, per phase [rank][phase].
  std::vector<std::array<double, kPhaseCount>> phase_busy_seconds;
  std::vector<std::array<double, kPhaseCount>> phase_wall_seconds;

  // Per rank, per collective kind [rank][kind].
  std::vector<std::array<std::uint64_t, kCollKindCount>> collective_count;
  std::vector<std::array<std::uint64_t, kCollKindCount>> collective_bytes;
  std::vector<std::array<double, kCollKindCount>> collective_seconds;

  // Per-rank run totals, recorded by the Runtime at finalize.
  std::vector<double> rank_compute_seconds;
  std::vector<double> rank_straggler_seconds;
  std::vector<double> rank_comm_seconds;
  std::vector<std::uint64_t> rank_bytes_sent;
  std::vector<std::uint64_t> rank_retries;
  std::vector<std::uint64_t> rank_redistributed;

  // Per-rank p2p retransmit rounds observed by recv (subset of retries).
  std::vector<std::uint64_t> rank_retransmits;

  // Leaf-chunk service accounting (dispatched by the drivers).
  std::vector<std::uint64_t> rank_chunks;
  std::vector<double> rank_chunk_service_seconds;
  std::array<std::uint64_t, kServiceHistBins> chunk_service_hist{};

  // Cross-rank chunk migration (canonical chunk-fold driver): chunks a rank
  // computed that the initial partition assigned to some OTHER rank.
  std::vector<std::uint64_t> rank_migrated_chunks;

  // Owned-mode halo traffic (core/halo_exchange.hpp): point-level Born halo
  // payload each rank sent/received over p2p, and the message count.
  std::vector<std::uint64_t> rank_halo_bytes_sent;
  std::vector<std::uint64_t> rank_halo_bytes_recv;
  std::vector<std::uint64_t> rank_halo_msgs;

  // Data-integrity layer: per-rank silent-corruption accounting. `injected`
  // counts scheduled flips that actually fired; `detected` the checksum
  // mismatches the guards caught; `recomputed` the canonical chunks rebuilt
  // fresh-from-zero; `retransmits` the modeled corruption-retransmit rounds
  // (disjoint from rank_retransmits, which counts dropped-copy rounds).
  std::vector<std::uint64_t> rank_corruption_injected;
  std::vector<std::uint64_t> rank_corruption_detected;
  std::vector<std::uint64_t> rank_corruption_recomputed;
  std::vector<std::uint64_t> rank_corruption_retransmits;

  // Work stealing (whole session, all pools).
  std::uint64_t steal_attempts = 0;
  std::uint64_t steal_successes = 0;
  std::uint64_t pop_misses = 0;

  // Incremental trajectory engine (core/incremental.hpp): delta_update steps
  // observed this session, total leaves re-anchored by them, and total list
  // segments re-derived (the reuse counterpart is derivable: segments per
  // step minus rebuilt).
  std::uint64_t delta_updates = 0;
  std::uint64_t delta_dirty_leaves = 0;
  std::uint64_t delta_lists_rebuilt = 0;

  // Serving layer (serve/service.hpp): request and prepared-state cache
  // accounting for this session. Evicted bytes are cumulative over the
  // session, not the cache's current occupancy.
  std::uint64_t requests_accepted = 0;
  std::uint64_t requests_served = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_evicted_bytes = 0;
  std::uint64_t batches_dispatched = 0;

  // -- aggregates ---------------------------------------------------------
  double total_phase_busy(int rank) const;
  double total_phase_busy_all() const;
  double phase_busy_all_ranks(PhaseId p) const;
  double phase_wall_all_ranks(PhaseId p) const;
  std::uint64_t collective_bytes_all_ranks(CollKind k) const;
  std::uint64_t collective_count_all_ranks(CollKind k) const;
  double collective_seconds_all_ranks(CollKind k) const;
  std::uint64_t total_retransmits() const;
  std::uint64_t total_chunks() const;
  std::uint64_t total_migrated_chunks() const;
  std::uint64_t total_halo_bytes() const;  // sent side (recv mirrors it)
  std::uint64_t total_corruption_injected() const;
  std::uint64_t total_corruption_detected() const;
  std::uint64_t total_corruption_recomputed() const;
  std::uint64_t total_corruption_retransmits() const;
  double steal_success_rate() const;  // successes / attempts (0 if none)
  // Cross-rank imbalance: max over ranks of chunks computed, divided by the
  // mean (1.0 = perfectly even; 0 if no chunks were dispatched).
  double chunk_imbalance() const;
  // Per-rank chunk counts as a histogram over ranks — the balance benches
  // plot this to show the skew each policy leaves behind.
  const std::vector<std::uint64_t>& chunk_histogram() const {
    return rank_chunks;
  }
};

#if GBPOL_TRACING_ENABLED

// All adders are no-ops when no session is active; rank ids outside
// [0, max_ranks) are clamped into the overflow slot (max_ranks - 1) so a
// misconfigured session can lose attribution but never write out of bounds.
// Host-thread activity (rank -1) is ignored by the per-rank adders.
void add_phase_busy(int rank, double seconds);
void add_phase_wall(int rank, PhaseId phase, double seconds);
void add_collective(int rank, CollKind kind, std::uint64_t bytes,
                    double modeled_seconds);
void add_retransmit(int rank);
void add_chunk_service(int rank, std::uint64_t ns);
void add_migrated_chunk(int rank);
void add_halo_sent(int rank, std::uint64_t bytes);
void add_halo_recv(int rank, std::uint64_t bytes);
void add_corruption_injected(int rank);
void add_corruption_detected(int rank);
void add_corruption_recompute(int rank);
void add_corruption_retransmit(int rank);
void add_steal_attempt();
void add_steal_success();
void add_pop_miss();
void add_delta_update(std::uint64_t dirty_leaves, std::uint64_t lists_rebuilt);
void add_request_accepted();
void add_request_served();
void add_cache_hit();
void add_cache_miss();
void add_cache_eviction(std::uint64_t bytes);
void add_batch_dispatched();
void record_rank_totals(int rank, double compute_seconds,
                        double straggler_seconds, double comm_seconds,
                        std::uint64_t bytes_sent, std::uint64_t retries,
                        std::uint64_t redistributed);

#else

inline void add_phase_busy(int, double) {}
inline void add_phase_wall(int, PhaseId, double) {}
inline void add_collective(int, CollKind, std::uint64_t, double) {}
inline void add_retransmit(int) {}
inline void add_chunk_service(int, std::uint64_t) {}
inline void add_migrated_chunk(int) {}
inline void add_halo_sent(int, std::uint64_t) {}
inline void add_halo_recv(int, std::uint64_t) {}
inline void add_corruption_injected(int) {}
inline void add_corruption_detected(int) {}
inline void add_corruption_recompute(int) {}
inline void add_corruption_retransmit(int) {}
inline void add_steal_attempt() {}
inline void add_steal_success() {}
inline void add_pop_miss() {}
inline void add_delta_update(std::uint64_t, std::uint64_t) {}
inline void add_request_accepted() {}
inline void add_request_served() {}
inline void add_cache_hit() {}
inline void add_cache_miss() {}
inline void add_cache_eviction(std::uint64_t) {}
inline void add_batch_dispatched() {}
inline void record_rank_totals(int, double, double, double, std::uint64_t,
                               std::uint64_t, std::uint64_t) {}

#endif  // GBPOL_TRACING_ENABLED

}  // namespace gbpol::obs
