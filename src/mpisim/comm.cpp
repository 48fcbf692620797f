#include "mpisim/comm.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <limits>

#include "mpisim/shared_state.hpp"
#include "support/checksum.hpp"

namespace gbpol::mpisim {

Comm::Comm(SharedState& shared, int rank)
    : shared_(&shared),
      rank_(rank),
      send_seq_(static_cast<std::size_t>(shared.ranks), 0) {}

int Comm::size() const { return shared_->ranks; }

const CorruptionSchedule& Comm::corruption_schedule() const {
  return shared_->corruption;
}

bool Comm::integrity_guards() const { return shared_->integrity_guards; }

void Comm::note_corruption_injected() {
  ++corruption_injected_;
  obs::add_corruption_injected(rank_);
}

void Comm::note_corruption_detected() {
  ++corruption_detected_;
  obs::add_corruption_detected(rank_);
}

void Comm::note_corruption_recomputed() {
  ++corruption_recomputed_;
  obs::add_corruption_recompute(rank_);
}

// Site codes for the corruption trace events' arg byte.
namespace {
constexpr std::uint8_t kSiteMessage = 0;
constexpr std::uint8_t kSiteCollective = 1;
}  // namespace

const void* Comm::integrity_fetch(const void* published, std::size_t bytes,
                                  int publisher, std::uint64_t seq,
                                  std::vector<std::byte>& scratch) {
  SharedState& s = *shared_;
  std::uint64_t bit = 0;
  if (publisher == rank_ || bytes == 0 ||
      !s.corruption.collective_bit(publisher, rank_, seq, &bit))
    return published;
  // The flip happens on the wire: the publisher's buffer stays pristine,
  // only this rank's received copy carries the flipped bit.
  scratch.assign(static_cast<const std::byte*>(published),
                 static_cast<const std::byte*>(published) + bytes);
  support::flip_bit(scratch.data(), bytes, bit);
  ++corruption_injected_;
  obs::add_corruption_injected(rank_);
  obs::emit(obs::EventKind::kCorruptionInject, seq, bytes, kSiteCollective);
  if (!s.integrity_guards) return scratch.data();
  // Guarded read: the received copy must reproduce the publisher's block
  // digests. On mismatch, recovery re-reads the publication — modeled as
  // one retransmit round (backoff window + fresh p2p leg from the
  // publisher), after which the copy is clean by construction.
  const support::BlockChecksum expected =
      support::block_checksum(published, bytes);
  if (!support::diff_blocks(expected, scratch.data(), bytes).empty()) {
    ++corruption_detected_;
    ++corruption_retransmits_;
    ++retries_;
    charge(s.cost.backoff(0) + s.cost.p2p(publisher, rank_, bytes));
    obs::add_corruption_detected(rank_);
    obs::add_corruption_retransmit(rank_);
    obs::emit(obs::EventKind::kCorruptionDetect, seq, bytes, kSiteCollective);
    obs::emit(obs::EventKind::kCorruptionRetransmit, seq, bytes,
              kSiteCollective);
    return published;
  }
  // Unreachable for single-bit flips (CRC32 detects them all); kept so an
  // undetectable pattern would flow through corrupted and fail loudly in
  // the equivalence tests rather than masking a guard bug here.
  return scratch.data();
}

void Comm::die_now(std::uint64_t seq, obs::DeathCause cause) {
  // The rank dies without publishing. It still arrives once (so peers
  // waiting on the current phase proceed) but drops out of the expected
  // count for every later phase, then unwinds to the Runtime. Sleepers in
  // recv are woken to re-check peer liveness.
  obs::emit(obs::EventKind::kDeath, seq, 0, static_cast<std::uint8_t>(cause));
  SharedState& s = *shared_;
  s.dead[static_cast<std::size_t>(rank_)].store(true, std::memory_order_release);
  s.sync.arrive_and_drop();
  s.wake_all_mailboxes();
  throw RankKilled{rank_, seq};
}

std::uint64_t Comm::enter_collective(const void* own_data,
                                     std::span<const ProxyPub> proxies,
                                     obs::CollKind kind) {
  SharedState& s = *shared_;
  const std::uint64_t seq = collective_seq_++;
  tick_ = 0;
  // Enter precedes any death/stall event carrying the same seq, so every
  // kDeath/kStallPark in a stream has a matching kCollectiveEnter before it.
  obs::emit(obs::EventKind::kCollectiveEnter, seq, 0,
            static_cast<std::uint8_t>(kind));
  s.heartbeat[static_cast<std::size_t>(rank_)].fetch_add(1, std::memory_order_relaxed);
  if (s.kill_all.load(std::memory_order_acquire))
    die_now(seq, obs::DeathCause::kKilled);
  if (s.faults.dies_at(rank_, seq)) die_now(seq, obs::DeathCause::kScheduled);
  if (s.faults.stalls_at(rank_, seq)) {
    // Injected stall: freeze here — holding the barrier slot, heartbeat
    // stagnant — until the supervisor watchdog (or a process kill) breaks
    // the stall. Conversion reuses the ordinary death path, so survivors
    // recover exactly as they would from a crash.
    obs::emit(obs::EventKind::kStallPark, seq);
    {
      std::unique_lock<std::mutex> lock(s.stall_mutex);
      s.in_stall[static_cast<std::size_t>(rank_)].store(true,
                                                        std::memory_order_release);
      s.stall_cv.notify_all();  // let a waiting supervisor see the entry
      s.stall_cv.wait(lock, [&] {
        return s.stall_break[static_cast<std::size_t>(rank_)].load(
                   std::memory_order_acquire) ||
               s.kill_all.load(std::memory_order_acquire);
      });
      s.in_stall[static_cast<std::size_t>(rank_)].store(false,
                                                        std::memory_order_release);
    }
    if (s.stall_break[static_cast<std::size_t>(rank_)].load(std::memory_order_acquire)) {
      s.stalls_converted.fetch_add(1, std::memory_order_relaxed);
      die_now(seq, obs::DeathCause::kStallConverted);
    }
    die_now(seq, obs::DeathCause::kKilled);
  }
  if (own_data != nullptr) s.publish[static_cast<std::size_t>(rank_)] = {own_data, seq};
  for (const ProxyPub& p : proxies)
    s.publish[static_cast<std::size_t>(p.rank)] = {p.data, seq};
  return seq;
}

bool Comm::poll_kill() {
  SharedState& s = *shared_;
  s.heartbeat[static_cast<std::size_t>(rank_)].fetch_add(1, std::memory_order_relaxed);
  ++tick_;
  const KillPlan& plan = s.kill;
  if (plan.armed && plan.rank == rank_ && plan.collective_seq == collective_seq_ &&
      plan.tick == tick_ && !s.kill_all.load(std::memory_order_acquire)) {
    s.kill_all.store(true, std::memory_order_release);
    // Stalled ranks wait on kill_all too; wake them so they exit promptly.
    std::lock_guard<std::mutex> lock(s.stall_mutex);
    s.stall_cv.notify_all();
  }
  const bool armed = s.kill_all.load(std::memory_order_acquire);
  obs::emit(obs::EventKind::kKillPoll, collective_seq_, tick_, armed ? 1 : 0);
  return armed;
}

bool Comm::kill_requested() const {
  return shared_->kill_all.load(std::memory_order_acquire);
}

void Comm::abandon() { die_now(collective_seq_, obs::DeathCause::kKilled); }

// Runs between the collective's first and second barriers, where the dead
// flags and publish slots are frozen (a rank can only die at the entry of a
// LATER collective, which it cannot reach before this one's second barrier).
// Hence every survivor computes the same vectors.
CollectiveStatus Comm::scan_dead(std::uint64_t seq) const {
  const SharedState& s = *shared_;
  CollectiveStatus st;
  for (int r = 0; r < s.ranks; ++r) {
    if (!s.is_dead(r)) continue;
    st.dead.push_back(r);
    if (s.publish[static_cast<std::size_t>(r)].seq != seq) st.missing.push_back(r);
  }
  return st;
}

void Comm::abort_collective(CollectiveStatus& st, std::uint64_t seq,
                            obs::CollKind kind) {
  st.error = CommError::kRankDied;
  ++retries_;
  obs::emit(obs::EventKind::kCollectiveAbort, seq,
            static_cast<std::uint64_t>(retry_streak_),
            static_cast<std::uint8_t>(kind));
  // Modeled cost of discovering the failure and re-entering: one barrier of
  // agreement plus an exponential backoff window.
  charge(shared_->cost.barrier() + shared_->cost.backoff(retry_streak_++));
}

void Comm::require_ok(const CollectiveStatus& st, const char* what) const {
  if (st.ok()) return;
  // The legacy void collectives have no recovery channel; a dead peer here
  // is unrecoverable, exactly like a crashed MPI process: fail fast rather
  // than deadlock.
  std::fprintf(stderr,
               "mpisim: rank %d: %s observed a dead rank with no recovery "
               "protocol attached\n",
               rank_, what);
  std::terminate();
}

void Comm::require_recv_ok(const RecvStatus& st, int src) const {
  if (st.ok()) return;
  std::fprintf(stderr, "mpisim: rank %d: recv from %d failed (%s)\n", rank_, src,
               st.error == CommError::kPeerDead ? "peer dead" : "watchdog timeout");
  std::terminate();
}

void Comm::barrier() {
  const std::uint64_t seq = enter_collective(nullptr, {}, obs::CollKind::kBarrier);
  shared_->sync.arrive_and_wait();
  const double cost = shared_->cost.barrier();
  charge(cost);
  obs::emit(obs::EventKind::kCollectiveExit, seq, 0,
            static_cast<std::uint8_t>(obs::CollKind::kBarrier));
  obs::add_collective(rank_, obs::CollKind::kBarrier, 0, cost);
}

void Comm::add_compute_seconds(double s) {
  compute_seconds_ += s;
  const double factor = shared_->faults.slowdown(rank_);
  if (factor > 1.0) straggler_seconds_ += (factor - 1.0) * s;
  // Attribute measured busy time to the driver phase open on this thread, so
  // summed per-rank phase busy reconciles with RankResult::compute_seconds.
  obs::add_phase_busy(rank_, s);
}

void Comm::allreduce_sum(std::span<double> data) {
  require_ok(fold_ft(data, FoldOp::kSum, -1, {}), "allreduce_sum");
}
void Comm::allreduce_min(std::span<double> data) {
  require_ok(fold_ft(data, FoldOp::kMin, -1, {}), "allreduce_min");
}
void Comm::allreduce_max(std::span<double> data) {
  require_ok(fold_ft(data, FoldOp::kMax, -1, {}), "allreduce_max");
}
void Comm::reduce_sum(std::span<double> data, int root) {
  require_ok(fold_ft(data, FoldOp::kSum, root, {}), "reduce_sum");
}

CollectiveStatus Comm::allreduce_sum_ft(std::span<double> data,
                                        std::span<const ProxyPub> proxies) {
  return fold_ft(data, FoldOp::kSum, -1, proxies);
}
CollectiveStatus Comm::allreduce_min_ft(std::span<double> data,
                                        std::span<const ProxyPub> proxies) {
  return fold_ft(data, FoldOp::kMin, -1, proxies);
}

// root < 0 means allreduce (every rank folds and keeps the result).
CollectiveStatus Comm::fold_ft(std::span<double> data, FoldOp op, int root,
                               std::span<const ProxyPub> proxies) {
  SharedState& s = *shared_;
  const obs::CollKind kind =
      root < 0 ? obs::CollKind::kAllreduce : obs::CollKind::kReduce;
  const std::uint64_t seq = enter_collective(data.data(), proxies, kind);
  s.sync.arrive_and_wait();
  CollectiveStatus st = scan_dead(seq);
  if (!st.missing.empty() || (root >= 0 && s.is_dead(root))) {
    abort_collective(st, seq, kind);
    s.sync.arrive_and_wait();  // everyone agrees on the abort before retrying
    return st;
  }
  retry_streak_ = 0;
  // Every folding rank walks the slots in strict rank order (including its
  // own / proxied slots), so FP sums are deterministic AND identical on all
  // ranks — and a retry with proxies folds the exact same sequence as the
  // fault-free run. min/max are order-independent anyway.
  const bool folds = root < 0 || rank_ == root;
  std::vector<double> total;
  if (folds) {
    total.assign(data.size(), op == FoldOp::kSum ? 0.0
                              : op == FoldOp::kMin
                                  ? std::numeric_limits<double>::infinity()
                                  : -std::numeric_limits<double>::infinity());
    std::vector<std::byte> scratch;
    for (int r = 0; r < s.ranks; ++r) {
      const auto* src = static_cast<const double*>(
          integrity_fetch(s.publish[static_cast<std::size_t>(r)].ptr,
                          data.size_bytes(), r, seq, scratch));
      for (std::size_t i = 0; i < data.size(); ++i) {
        switch (op) {
          case FoldOp::kSum: total[i] += src[i]; break;
          case FoldOp::kMin: total[i] = std::min(total[i], src[i]); break;
          case FoldOp::kMax: total[i] = std::max(total[i], src[i]); break;
        }
      }
    }
  }
  s.sync.arrive_and_wait();  // everyone done reading
  if (folds) std::memcpy(data.data(), total.data(), data.size_bytes());
  s.sync.arrive_and_wait();  // publish slots free for reuse
  double cost;
  if (root < 0) {
    cost = s.cost.allreduce(data.size_bytes());
    bytes_sent_ += data.size_bytes();
  } else {
    cost = s.cost.reduce(data.size_bytes());
    if (rank_ != root) bytes_sent_ += data.size_bytes();
  }
  charge(cost);
  obs::emit(obs::EventKind::kCollectiveExit, seq, data.size_bytes(),
            static_cast<std::uint8_t>(kind));
  obs::add_collective(rank_, kind, data.size_bytes(), cost);
  return st;
}

CollectiveStatus Comm::bcast_bytes_ft(void* data, std::size_t bytes, int root,
                                      std::span<const ProxyPub> proxies) {
  SharedState& s = *shared_;
  const std::uint64_t seq = enter_collective(data, proxies, obs::CollKind::kBcast);
  s.sync.arrive_and_wait();
  CollectiveStatus st = scan_dead(seq);
  // Only the root's slot carries payload; dead non-roots don't block a bcast.
  if (s.publish[static_cast<std::size_t>(root)].seq != seq) {
    abort_collective(st, seq, obs::CollKind::kBcast);
    s.sync.arrive_and_wait();
    return st;
  }
  retry_streak_ = 0;
  if (rank_ != root) {
    std::vector<std::byte> scratch;
    std::memcpy(data,
                integrity_fetch(s.publish[static_cast<std::size_t>(root)].ptr,
                                bytes, root, seq, scratch),
                bytes);
  }
  s.sync.arrive_and_wait();
  const double cost = s.cost.bcast(bytes);
  charge(cost);
  if (rank_ == root) bytes_sent_ += bytes;
  obs::emit(obs::EventKind::kCollectiveExit, seq, bytes,
            static_cast<std::uint8_t>(obs::CollKind::kBcast));
  obs::add_collective(rank_, obs::CollKind::kBcast, bytes, cost);
  return st;
}

CollectiveStatus Comm::allgatherv_bytes_ft(const void* send, void* recv,
                                           std::size_t elem_size,
                                           std::span<const int> counts,
                                           std::span<const int> displs,
                                           std::span<const ProxyPub> proxies) {
  SharedState& s = *shared_;
  const std::uint64_t seq =
      enter_collective(send, proxies, obs::CollKind::kAllgatherv);
  s.sync.arrive_and_wait();
  CollectiveStatus st = scan_dead(seq);
  if (!st.missing.empty()) {
    abort_collective(st, seq, obs::CollKind::kAllgatherv);
    s.sync.arrive_and_wait();
    return st;
  }
  retry_streak_ = 0;
  std::size_t total_bytes = 0;
  std::vector<std::byte> scratch;
  for (int r = 0; r < s.ranks; ++r) {
    const std::size_t rb = static_cast<std::size_t>(counts[r]) * elem_size;
    auto* dst = static_cast<std::byte*>(recv) +
                static_cast<std::size_t>(displs[r]) * elem_size;
    // In-place gather: a rank's own slice may alias recv exactly. Skip the
    // self-copy then — besides being a no-op, writing those bytes would race
    // with peers concurrently reading them through the publish slot.
    const void* src = integrity_fetch(s.publish[static_cast<std::size_t>(r)].ptr,
                                      rb, r, seq, scratch);
    if (dst != src) std::memmove(dst, src, rb);
    total_bytes += rb;
  }
  s.sync.arrive_and_wait();
  const double cost = s.cost.allgatherv(total_bytes);
  charge(cost);
  bytes_sent_ += static_cast<std::size_t>(counts[rank_]) * elem_size;
  obs::emit(obs::EventKind::kCollectiveExit, seq, total_bytes,
            static_cast<std::uint8_t>(obs::CollKind::kAllgatherv));
  obs::add_collective(rank_, obs::CollKind::kAllgatherv, total_bytes, cost);
  return st;
}

void Comm::steal_rpc(int victim, std::uint64_t remaining, std::uint64_t granted,
                     std::size_t request_bytes, std::size_t grant_bytes) {
  SharedState& s = *shared_;
  obs::emit(obs::EventKind::kStealRequest, static_cast<std::uint64_t>(victim),
            remaining);
  charge(s.cost.p2p(rank_, victim, request_bytes));
  bytes_sent_ += request_bytes;
  // The grant leg travels victim -> thief but the thief models the round
  // trip, keeping the exchange outside the victim's accounting (and its
  // logical clocks) entirely.
  charge(s.cost.p2p(victim, rank_, grant_bytes));
  obs::emit(obs::EventKind::kStealGrant, static_cast<std::uint64_t>(victim),
            granted);
  if (granted > 0) obs::add_steal_success();
  obs::add_steal_attempt();
}

void Comm::charge_collective(obs::CollKind kind, std::size_t bytes) {
  SharedState& s = *shared_;
  double cost = 0.0;
  switch (kind) {
    case obs::CollKind::kBarrier: cost = s.cost.barrier(); break;
    case obs::CollKind::kAllreduce: cost = s.cost.allreduce(bytes); break;
    case obs::CollKind::kReduce: cost = s.cost.reduce(bytes); break;
    case obs::CollKind::kBcast: cost = s.cost.bcast(bytes); break;
    case obs::CollKind::kAllgatherv: cost = s.cost.allgatherv(bytes); break;
    case obs::CollKind::kCount: break;
  }
  charge(cost);
  bytes_sent_ += bytes;
  obs::add_collective(rank_, kind, bytes, cost);
}

void Comm::send_bytes(const void* data, std::size_t bytes, int dst, int tag) {
  SharedState& s = *shared_;
  const std::uint64_t seq = send_seq_[static_cast<std::size_t>(dst)]++;
  charge(s.cost.p2p(rank_, dst, bytes));
  bytes_sent_ += bytes;
  obs::emit(obs::EventKind::kSend, static_cast<std::uint64_t>(dst), bytes);
  if (s.is_dead(dst)) return;  // wire time is spent; nobody is listening
  Mailbox& mb = *s.mailboxes[static_cast<std::size_t>(dst)];
  Message msg;
  msg.src = rank_;
  msg.tag = tag;
  msg.suppressed = s.faults.dropped_copies(rank_, dst, seq);
  msg.delay_seconds = s.faults.delay_seconds(rank_, dst, seq);
  msg.payload.resize(bytes);
  std::memcpy(msg.payload.data(), data, bytes);
  if (!s.corruption.empty()) {
    // Integrity framing: block checksums of the pristine payload travel
    // with the message. Only armed when a corruption schedule exists — a
    // clean run keeps the original zero-overhead framing.
    msg.checksum = support::block_checksum(msg.payload.data(), bytes);
    std::uint64_t bit = 0;
    if (bytes > 0 && s.corruption.message_bit(rank_, dst, seq, &bit)) {
      msg.pristine = msg.payload;  // what the modeled retransmit delivers
      support::flip_bit(msg.payload.data(), bytes, bit);
      ++corruption_injected_;
      obs::add_corruption_injected(rank_);
      obs::emit(obs::EventKind::kCorruptionInject,
                static_cast<std::uint64_t>(dst), bytes, kSiteMessage);
    }
  }
  {
    std::lock_guard<std::mutex> lock(mb.mutex);
    mb.queue.push_back(std::move(msg));
  }
  mb.cv.notify_all();
}

RecvStatus Comm::recv_bytes_ft(void* data, std::size_t bytes, int src, int tag) {
  SharedState& s = *shared_;
  Mailbox& mb = *s.mailboxes[static_cast<std::size_t>(rank_)];
  const double watchdog = s.recv_watchdog_seconds;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(watchdog > 0.0 ? watchdog : 0.0));
  std::unique_lock<std::mutex> lock(mb.mutex);
  for (;;) {
    for (auto it = mb.queue.begin(); it != mb.queue.end(); ++it) {
      if (it->src != src || it->tag != tag) continue;
      if (it->payload.size() != bytes) {
        // Size mismatch is a programming error in the caller.
        std::terminate();
      }
      // Injected drops: the first `suppressed` copies were lost on the wire.
      // Each lost copy is a logical retransmit round — a timeout window plus
      // a fresh transmission — charged here, where the waiting happens.
      for (int attempt = 0; it->suppressed > 0; --it->suppressed, ++attempt) {
        ++retries_;
        charge(s.cost.backoff(attempt) + s.cost.p2p(src, rank_, bytes));
        obs::emit(obs::EventKind::kRetransmit, static_cast<std::uint64_t>(src),
                  static_cast<std::uint64_t>(attempt));
        obs::add_retransmit(rank_);
      }
      if (!it->checksum.blocks.empty() && s.integrity_guards &&
          !support::diff_blocks(it->checksum, it->payload.data(), bytes)
               .empty()) {
        // Silent wire corruption: the framing checksums disagree with the
        // delivered bytes. Recovery is one modeled retransmit round (backoff
        // window + a fresh transmission), after which the pristine copy
        // arrives — the sender's buffer was never wrong.
        ++corruption_detected_;
        ++corruption_retransmits_;
        ++retries_;
        charge(s.cost.backoff(0) + s.cost.p2p(src, rank_, bytes));
        obs::add_corruption_detected(rank_);
        obs::add_corruption_retransmit(rank_);
        obs::emit(obs::EventKind::kCorruptionDetect,
                  static_cast<std::uint64_t>(src), bytes, kSiteMessage);
        obs::emit(obs::EventKind::kCorruptionRetransmit,
                  static_cast<std::uint64_t>(src), bytes, kSiteMessage);
        it->payload = std::move(it->pristine);
      }
      std::memcpy(data, it->payload.data(), bytes);
      charge(s.cost.p2p(src, rank_, bytes) + it->delay_seconds);
      mb.queue.erase(it);
      obs::emit(obs::EventKind::kRecv, static_cast<std::uint64_t>(src), bytes);
      return {};
    }
    // Messages queued before the peer died are still deliverable (checked
    // above); an empty match from a dead peer never arrives.
    if (s.is_dead(src)) return {CommError::kPeerDead};
    if (watchdog > 0.0) {
      if (mb.cv.wait_until(lock, deadline) == std::cv_status::timeout)
        return {CommError::kTimeout};
    } else {
      mb.cv.wait(lock);
    }
  }
}

}  // namespace gbpol::mpisim
