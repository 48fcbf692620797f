// Per-rank communicator handle for the in-process message-passing runtime.
//
// Semantics mirror the MPI subset the paper's algorithm (Fig. 4) needs:
// barrier, broadcast, sum-reduce / allreduce, allgatherv and point-to-point
// send/recv. Collectives must be entered by every rank in the same order
// (standard MPI requirement); data moves through shared memory, while TIME
// is charged by the CostModel as if the ranks sat where RankMap places them
// on the modeled cluster.
//
// Determinism: reductions are evaluated in rank order by every rank, so
// results are bit-identical across runs and across ranks.
//
// Fault tolerance (mpisim/faults.hpp): every collective entry advances a
// logical collective sequence number and every send advances a per-link send
// sequence number; the shared FaultSchedule is keyed on those clocks. The
// `_ft` collective variants return a CollectiveStatus instead of deadlocking
// when a rank dies: all survivors observe the same abort at the same logical
// point and can retry with proxy publications standing in for dead ranks'
// slots — the retry folds slots in the original rank order, so a recovered
// reduction is bit-identical to the fault-free one. The legacy void APIs
// wrap the `_ft` forms and fail fast (std::terminate with a message) on any
// fault they cannot mask, preserving their original contract.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "obs/trace.hpp"
#include "support/timer.hpp"

namespace gbpol::mpisim {

struct SharedState;
class CorruptionSchedule;

enum class CommError {
  kOk = 0,
  kRankDied,   // a participant died; CollectiveStatus lists who
  kPeerDead,   // recv from a rank that is dead and left nothing queued
  kTimeout,    // recv watchdog expired (fail-fast safety net, not modeled)
};

// Outcome of a fault-tolerant collective. All survivors of the same
// collective return *identical* status contents (the scan happens between
// two barriers, so the dead set cannot change mid-decision).
struct CollectiveStatus {
  CommError error = CommError::kOk;
  std::vector<int> dead;     // every rank dead as of this collective, ascending
  std::vector<int> missing;  // dead ranks with no valid publication this round
                             // (newly dead, or their proxy holder died)
  bool ok() const { return error == CommError::kOk; }
};

struct RecvStatus {
  CommError error = CommError::kOk;
  bool ok() const { return error == CommError::kOk; }
};

// A stand-in publication: `data` is presented as dead rank `rank`'s
// contribution to one collective. The caller (recovery layer) guarantees at
// most one live rank proxies a given dead rank per collective.
struct ProxyPub {
  int rank = 0;
  const void* data = nullptr;
};

// Thrown by a rank at its scheduled death point; caught by the Runtime,
// which records the rank as dead and retires its thread. Deliberately not a
// std::exception so user-level handlers don't swallow it.
struct RankKilled {
  int rank = 0;
  std::uint64_t collective_seq = 0;
};

class Comm {
 public:
  Comm(SharedState& shared, int rank);

  int rank() const { return rank_; }
  int size() const;

  void barrier();

  template <typename T>
  void bcast(std::span<T> data, int root) {
    static_assert(std::is_trivially_copyable_v<T>);
    require_ok(bcast_bytes_ft(data.data(), data.size_bytes(), root, {}), "bcast");
  }

  // In-place sum over all ranks; every rank ends with the total.
  void allreduce_sum(std::span<double> data);
  // Element-wise min / max over all ranks.
  void allreduce_min(std::span<double> data);
  void allreduce_max(std::span<double> data);
  // In-place sum; only `root`'s buffer holds the total afterwards.
  void reduce_sum(std::span<double> data, int root);

  // Gathers variable-size contributions from all ranks into `recv` laid out
  // as rank r's `counts[r]` elements at offset `displs[r]`. `send` must
  // equal the rank's own slice.
  template <typename T>
  void allgatherv(std::span<const T> send, std::span<T> recv,
                  std::span<const int> counts, std::span<const int> displs) {
    static_assert(std::is_trivially_copyable_v<T>);
    require_ok(allgatherv_bytes_ft(send.data(), recv.data(), sizeof(T), counts,
                                   displs, {}),
               "allgatherv");
  }

  // --- fault-tolerant collective entry points ---------------------------
  // On kRankDied every survivor has already re-synchronized (the aborted
  // collective consumed its barriers uniformly); the caller may run a
  // recovery protocol and re-enter the same collective with proxies. Buffers
  // are untouched by an aborted collective.
  CollectiveStatus allreduce_sum_ft(std::span<double> data,
                                    std::span<const ProxyPub> proxies);
  CollectiveStatus allreduce_min_ft(std::span<double> data,
                                    std::span<const ProxyPub> proxies);

  template <typename T>
  CollectiveStatus allgatherv_ft(std::span<const T> send, std::span<T> recv,
                                 std::span<const int> counts,
                                 std::span<const int> displs,
                                 std::span<const ProxyPub> proxies) {
    static_assert(std::is_trivially_copyable_v<T>);
    return allgatherv_bytes_ft(send.data(), recv.data(), sizeof(T), counts,
                               displs, proxies);
  }

  template <typename T>
  void send(std::span<const T> data, int dst, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    send_bytes(data.data(), data.size_bytes(), dst, tag);
  }

  template <typename T>
  void recv(std::span<T> data, int src, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    require_recv_ok(recv_bytes_ft(data.data(), data.size_bytes(), src, tag), src);
  }

  // Timeout- and death-aware receive: returns kPeerDead if `src` is dead
  // with nothing matching queued, kTimeout if the wall-clock watchdog fires
  // (misprogrammed protocol — deterministic schedules never hit it).
  template <typename T>
  RecvStatus recv_ft(std::span<T> data, int src, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    return recv_bytes_ft(data.data(), data.size_bytes(), src, tag);
  }

  // Steal round trip against `victim` for the cross-rank balancer: a
  // request carrying this rank's gossiped progress counter and a grant
  // carrying `granted` chunk descriptors back. Charges both p2p legs and
  // emits kStealRequest/kStealGrant, but does NOT advance the collective
  // clock — FaultPlan/KillPlan logical coordinates replay unchanged no
  // matter how many steals a policy issues. `remaining` is the thief's own
  // chunk backlog at request time (trace payload).
  void steal_rpc(int victim, std::uint64_t remaining, std::uint64_t granted,
                 std::size_t request_bytes, std::size_t grant_bytes);

  // Charges the modeled time of one collective of `kind` moving `bytes` —
  // the balanced reduction exchanges its chunk partials through shared
  // memory in canonical order, so the data motion is charged analytically
  // here rather than through a publish-slot collective.
  void charge_collective(obs::CollKind kind, std::size_t bytes);

  // --- process kill & progress (checkpoint/restart support) -------------
  // Called by drivers at checkpoint-chunk boundaries. Bumps this rank's
  // heartbeat, advances the intra-epoch poll tick, arms the shared kill
  // flag when the KillPlan's logical coordinate (collectives entered,
  // tick-th poll) is reached, and returns true once the process kill is in
  // effect — the caller should stop working and abandon().
  bool poll_kill();
  // True once any rank armed the shared kill flag. Recovery loops check
  // this so a kill during recovery abandons instead of recursing.
  bool kill_requested() const;
  // Leaves the run through the death machinery (dead flag, barrier drop,
  // mailbox wake — so blocked peers get unstuck) and unwinds to the
  // Runtime. Used when poll_kill()/kill_requested() reports a kill.
  [[noreturn]] void abandon();

  // --- accounting -------------------------------------------------------
  // Compute time is measured (thread CPU time), communication time is
  // modeled; the runtime report combines them into a cluster makespan.

  // Adds externally measured compute seconds (e.g. max-over-workers busy
  // time of a rank-local work-stealing pool). If this rank is a scheduled
  // straggler, the modeled surplus (factor - 1) * s lands in the separate
  // straggler channel so RunReport makespans reflect the slowdown.
  void add_compute_seconds(double s);

  // Recovery-layer bookkeeping: number of work items (leaves / atoms) this
  // rank recomputed on behalf of a dead rank.
  void add_redistributed_work(std::uint64_t items) { redistributed_work_ += items; }

  // Balancer bookkeeping: one chunk computed by this rank that the initial
  // partition assigned to another rank (stolen or redistributed).
  void add_migrated_chunk() {
    migrated_chunks_ += 1;
    obs::add_migrated_chunk(rank_);
  }

  // RAII region measuring the rank thread's own CPU time as compute.
  class ComputeRegion {
   public:
    explicit ComputeRegion(Comm& comm) : comm_(comm) {}
    ~ComputeRegion() { comm_.add_compute_seconds(timer_.seconds()); }
    ComputeRegion(const ComputeRegion&) = delete;
    ComputeRegion& operator=(const ComputeRegion&) = delete;

   private:
    Comm& comm_;
    ThreadCpuTimer timer_;
  };

  double compute_seconds() const { return compute_seconds_; }
  double straggler_seconds() const { return straggler_seconds_; }
  double comm_seconds() const { return comm_seconds_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }
  std::uint64_t retries() const { return retries_; }
  std::uint64_t redistributed_work() const { return redistributed_work_; }
  std::uint64_t migrated_chunks() const { return migrated_chunks_; }
  std::uint64_t corruption_injected() const { return corruption_injected_; }
  std::uint64_t corruption_detected() const { return corruption_detected_; }
  std::uint64_t corruption_recomputed() const { return corruption_recomputed_; }
  std::uint64_t corruption_retransmits() const { return corruption_retransmits_; }

  // --- data integrity ---------------------------------------------------
  // The run's silent-corruption schedule and the guard master switch,
  // exposed so drivers can inject/verify their hot arrays and snapshots on
  // the same replayable clocks the comm framing uses.
  const CorruptionSchedule& corruption_schedule() const;
  bool integrity_guards() const;

  // Integrity bookkeeping from outside the comm framing (hot-array guards,
  // snapshot injection in the drivers). Counters land in this rank's report
  // and the per-rank obs metrics alongside the comm layer's own.
  void note_corruption_injected();
  void note_corruption_detected();
  void note_corruption_recomputed();

 private:
  enum class FoldOp { kSum, kMin, kMax };

  CollectiveStatus fold_ft(std::span<double> data, FoldOp op, int root,
                           std::span<const ProxyPub> proxies);
  CollectiveStatus bcast_bytes_ft(void* data, std::size_t bytes, int root,
                                  std::span<const ProxyPub> proxies);
  CollectiveStatus allgatherv_bytes_ft(const void* send, void* recv,
                                       std::size_t elem_size,
                                       std::span<const int> counts,
                                       std::span<const int> displs,
                                       std::span<const ProxyPub> proxies);
  void send_bytes(const void* data, std::size_t bytes, int dst, int tag);
  RecvStatus recv_bytes_ft(void* data, std::size_t bytes, int src, int tag);

  // Advances the collective clock; if this is the rank's scheduled death
  // point, marks it dead, drops out of the barrier group and throws
  // RankKilled. A scheduled stall parks here until the supervisor converts
  // it. Publishes this rank's slot plus any proxies it carries. `kind` tags
  // the trace events (enter/abort/death all carry the same seq).
  std::uint64_t enter_collective(const void* own_data,
                                 std::span<const ProxyPub> proxies,
                                 obs::CollKind kind);
  // Common death path: dead flag, arrive_and_drop, wake sleepers, throw.
  [[noreturn]] void die_now(std::uint64_t seq, obs::DeathCause cause);
  CollectiveStatus scan_dead(std::uint64_t seq) const;
  void abort_collective(CollectiveStatus& st, std::uint64_t seq,
                        obs::CollKind kind);

  void require_ok(const CollectiveStatus& st, const char* what) const;
  void require_recv_ok(const RecvStatus& st, int src) const;

  // Collective-payload integrity: the bytes rank `publisher` published, as
  // THIS rank receives them at collective `seq`. If the schedule flips a bit
  // on the (publisher -> this) copy, the flipped bytes live in `scratch`;
  // with guards on, the digest mismatch is detected, a modeled retransmit
  // is charged, and the pristine publication is returned — with guards off
  // the corrupted scratch copy is returned as-is.
  const void* integrity_fetch(const void* published, std::size_t bytes,
                              int publisher, std::uint64_t seq,
                              std::vector<std::byte>& scratch);

  void charge(double seconds) { comm_seconds_ += seconds; }

  SharedState* shared_;
  int rank_;
  double compute_seconds_ = 0.0;
  double straggler_seconds_ = 0.0;
  double comm_seconds_ = 0.0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t redistributed_work_ = 0;
  std::uint64_t migrated_chunks_ = 0;
  std::uint64_t corruption_injected_ = 0;
  std::uint64_t corruption_detected_ = 0;
  std::uint64_t corruption_recomputed_ = 0;
  std::uint64_t corruption_retransmits_ = 0;
  std::uint64_t collective_seq_ = 0;      // logical clock: collectives entered
  std::vector<std::uint64_t> send_seq_;   // logical clock: sends per dest rank
  std::uint64_t tick_ = 0;                // polls since last collective entry
  int retry_streak_ = 0;                  // consecutive aborted collectives
};

}  // namespace gbpol::mpisim
