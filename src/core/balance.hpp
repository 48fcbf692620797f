// Cross-rank dynamic load balancing for the chunked distributed path.
//
// The unit of migration is a CHUNK: a fixed run of consecutive tree leaves
// whose boundaries depend only on (item count, rank count, requested chunk
// size) — never on the balance policy. Each chunk's partial result is
// computed fresh-from-zero by whichever rank owns it, and the reduction
// left-folds the per-chunk partials in ascending chunk order. The folded
// total therefore depends only on the chunk boundaries, not on the
// assignment, which is what makes every BalancePolicy (and every recovery /
// resume path) bit-identical (0 ulp) — see DESIGN.md "Load balancing".
//
// Determinism of stealing: a real asynchronous steal protocol would make the
// assignment depend on wall-clock races. Here the "gossiped progress
// counter" the paper-style protocol piggybacks on existing collectives IS
// the modeled remaining cost of each rank's queue, so the whole steal
// schedule is planned by a deterministic list-scheduling simulation over the
// per-chunk cost estimates: a rank that drains its queue requests work from
// the most-loaded peer (ties to the lowest rank), which grants half of its
// queued tail. The runtime then executes the planned assignment, charging
// each planned steal as a request/grant message pair (Comm::steal_rpc) that
// does NOT advance the collective clock — FaultPlan and KillPlan logical
// coordinates replay unchanged under every policy.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "core/workdiv.hpp"

namespace gbpol {

// Policy-independent chunk geometry: chunks of `chunk_items` consecutive
// items (the last chunk may be short). `chunk_items == 0` picks
// ceil(n / (8 * workers)) — a few chunks per worker thread (ranks x
// threads_per_rank), derived only from the job shape so every policy agrees
// on the boundaries, and P x p and (P*p) x 1 runs cut identical chunks.
struct ChunkPlan {
  std::uint32_t n_items = 0;
  std::uint32_t chunk_items = 1;
  std::uint32_t n_chunks = 0;

  Segment chunk_range(std::uint32_t chunk) const {
    const std::uint32_t lo = chunk * chunk_items;
    const std::uint32_t hi = lo + chunk_items < n_items ? lo + chunk_items : n_items;
    return Segment{lo, hi};
  }
};

ChunkPlan make_chunk_plan(std::uint32_t n_items, int workers,
                          std::uint32_t chunk_items);

// Per-chunk cost estimates from exact per-leaf work counts (one entry per
// item of `plan`, e.g. LeafWalk::interactions over every leaf): each leaf is
// priced by mpisim::interaction_costs and a chunk sums its leaves in
// ascending order, so the costs are a pure function of the counts.
std::vector<double> chunk_costs(const ChunkPlan& plan,
                                std::span<const std::uint64_t> leaf_interactions);

// One planned steal: applied when `thief` has processed `after_processed`
// chunks of its final order (i.e. its initial queue drained there).
struct StealEvent {
  int thief = -1;
  int victim = -1;
  std::uint32_t after_processed = 0;  // thief's processed count at request time
  std::uint32_t granted = 0;          // chunks moved victim -> thief
  std::uint64_t victim_remaining = 0; // victim queue length at grant (gossip)
};

// Deterministic chunk-to-rank schedule for one phase.
struct BalanceAssignment {
  std::vector<std::vector<std::uint32_t>> order;  // per rank: chunks, in order
  std::vector<int> initial_rank;                  // pre-steal owner per chunk
  std::vector<StealEvent> steals;                 // in planning order

  int ranks() const { return static_cast<int>(order.size()); }
  // Chunks rank `r` executes that the initial partition gave someone else.
  std::uint64_t migrated(int r) const;
};

// Plans the schedule: kStatic splits chunk ids evenly, kCostModel splits by
// cumulative cost (workdiv::segments_by_cost), kSteal starts from the cost
// split and runs the modeled steal simulation described above. `chunk_costs`
// must have one entry per chunk; all-zero costs degrade to the even split.
BalanceAssignment plan_balance(std::span<const double> chunk_costs, int ranks,
                               BalancePolicy policy);

// Planned steals regrouped per thief, in planning order — the order a thief
// fires its steal_rpc calls at runtime (shared by the balanced and owned
// drivers so their message schedules agree).
std::vector<std::vector<StealEvent>> steals_by_thief(const BalanceAssignment& plan,
                                                     int ranks);

// Planned executor per chunk (the rank whose order holds it, post-steal).
// Death recovery stripes over the chunks whose executor is dead — a list
// derived only from the plan and the collectively-agreed dead set, so every
// survivor stripes the SAME list. (The ledger alone cannot serve: survivors
// recover concurrently, so a ledger snapshot taken mid-recovery differs
// between ranks and a shifted stripe can orphan chunks.)
std::vector<int> executor_of(const BalanceAssignment& plan, std::uint32_t n_chunks);

// Shared completion ledger for one phase of the balanced path. Each chunk is
// computed by exactly one live rank (the planned owner, or a recovery rank
// after a death); mark_done's release store pairs with done's acquire load,
// so a chunk observed done has a fully written partial. Death recovery and
// checkpoint resume both key off this ledger: a chunk is either done — and
// its partial is exact, wherever it was computed — or it is recomputed from
// scratch, which yields the identical partial by construction.
class ChunkLedger {
 public:
  explicit ChunkLedger(std::uint32_t n_chunks)
      : done_(n_chunks), owner_(n_chunks, -1) {}

  std::uint32_t size() const { return static_cast<std::uint32_t>(done_.size()); }

  void mark_done(std::uint32_t chunk, int owner) {
    owner_[chunk] = owner;
    done_[chunk].store(1, std::memory_order_release);
  }
  bool done(std::uint32_t chunk) const {
    return done_[chunk].load(std::memory_order_acquire) != 0;
  }
  // Rank that computed the chunk (valid once done; -1 otherwise). Written
  // before the done flag's release store, read after its acquire load.
  int owner(std::uint32_t chunk) const { return owner_[chunk]; }

  // Chunks still missing, ascending. Only meaningful after a barrier (or a
  // collective abort, which synchronizes survivors) orders the flag writes.
  std::vector<std::uint32_t> pending() const;

 private:
  std::vector<std::atomic<std::uint8_t>> done_;
  std::vector<int> owner_;
};

}  // namespace gbpol
