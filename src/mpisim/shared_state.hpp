// Internal shared state of one Runtime launch. Not part of the public API.
#pragma once

#include <atomic>
#include <barrier>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <vector>

#include "mpisim/cluster.hpp"
#include "mpisim/costmodel.hpp"
#include "mpisim/faults.hpp"
#include "support/checksum.hpp"

namespace gbpol::mpisim {

struct Message {
  int src = 0;
  int tag = 0;
  // Fault injection: the receiver must observe `suppressed` retransmit
  // rounds (charging modeled backoff) before this copy is delivered, plus
  // `delay_seconds` of modeled lateness. Both are stamped at send time from
  // the link's logical send sequence number, so replays are bit-identical.
  int suppressed = 0;
  double delay_seconds = 0.0;
  std::vector<std::byte> payload;
  // Integrity framing: block checksums of the PRISTINE payload, computed by
  // the sender before any scheduled corruption flips `payload` in flight.
  // When a flip was injected, `pristine` holds the clean bytes the modeled
  // retransmit delivers after the receiver detects the mismatch (empty
  // otherwise — the common case carries no extra copy).
  support::BlockChecksum checksum;
  std::vector<std::byte> pristine;
};

struct Mailbox {
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<Message> queue;
};

// One publication slot per rank. `seq` stamps which collective the pointer
// belongs to: a slot whose seq doesn't match the current collective sequence
// is stale (its owner died, or its proxy died before republishing) and must
// not be read. Slots are only written between a collective's entry and its
// first barrier, and only read between the first and second barriers, so no
// per-slot synchronization is needed.
struct PublishSlot {
  const void* ptr = nullptr;
  std::uint64_t seq = std::numeric_limits<std::uint64_t>::max();
};

struct SharedState {
  SharedState(const ClusterModel& cluster_model, int ranks, int threads_per_rank,
              const FaultPlan& plan, double recv_watchdog_seconds,
              const KillPlan& kill_plan = {},
              const CorruptionPlan& corruption_plan = {},
              bool integrity_guards_on = true)
      : ranks(ranks),
        map(cluster_model, ranks, threads_per_rank),
        cost(cluster_model, map),
        faults(plan, ranks),
        corruption(corruption_plan, ranks),
        integrity_guards(integrity_guards_on),
        kill(kill_plan),
        recv_watchdog_seconds(recv_watchdog_seconds),
        sync(ranks),
        publish(static_cast<std::size_t>(ranks)),
        dead(static_cast<std::size_t>(ranks)),
        heartbeat(static_cast<std::size_t>(ranks)),
        stall_break(static_cast<std::size_t>(ranks)),
        in_stall(static_cast<std::size_t>(ranks)),
        mailboxes(static_cast<std::size_t>(ranks)) {
    for (auto& mb : mailboxes) mb = std::make_unique<Mailbox>();
  }

  // Wakes every rank blocked in recv so it can re-check peer liveness.
  void wake_all_mailboxes() {
    for (auto& mb : mailboxes) {
      // Pairing the notify with the lock keeps the wake ordered after the
      // dead-flag store for sleepers between their liveness check and wait.
      std::lock_guard<std::mutex> lock(mb->mutex);
      mb->cv.notify_all();
    }
  }

  bool is_dead(int r) const {
    return dead[static_cast<std::size_t>(r)].load(std::memory_order_acquire);
  }

  // Retires rank `r` from the job: marks it dead, arrives once for the
  // phase peers may be waiting on, drops it from every later phase, and
  // wakes blocked receivers so they re-check its liveness.
  void retire(int r) {
    dead[static_cast<std::size_t>(r)].store(true, std::memory_order_release);
    sync.arrive_and_drop();
    wake_all_mailboxes();
  }

  // Raises kill_all: every rank abandons at its next poll or collective
  // entry. Parked stalls wait on kill_all too, so they are woken to exit.
  void raise_kill() {
    kill_all.store(true, std::memory_order_release);
    std::lock_guard<std::mutex> lock(stall_mutex);
    stall_cv.notify_all();
  }

  int ranks;
  RankMap map;
  CostModel cost;
  FaultSchedule faults;
  // Silent-corruption schedule plus the guard master switch. Guards ON is
  // the production configuration (checksum + detect + recover); OFF exists
  // so the canary tests can prove an unguarded run silently goes wrong.
  CorruptionSchedule corruption;
  bool integrity_guards = true;
  KillPlan kill;
  double recv_watchdog_seconds;
  std::barrier<> sync;
  // Collectives are globally ordered, so one slot array suffices.
  std::vector<PublishSlot> publish;
  // Set (once, never cleared) by a rank dying at a collective entry; read by
  // survivors after the next barrier, which orders the store before the scan.
  std::vector<std::atomic<bool>> dead;
  // Raised by the KillPlan trigger rank (or an external supervisor); every
  // rank observing it abandons via the death path at its next poll or
  // collective entry. Once set, it is never cleared.
  std::atomic<bool> kill_all{false};
  // Per-rank logical progress clocks, bumped at every collective entry and
  // every poll point. The supervisor watchdog samples these; a rank whose
  // clock stops advancing while peers move on is presumed stalled.
  std::vector<std::atomic<std::uint64_t>> heartbeat;
  // Stall actuation: an injected-stall rank parks on stall_cv holding its
  // in_stall flag; the supervisor converts it by setting its stall_break
  // flag and notifying. Ranks that merely wait at barriers ignore both.
  std::mutex stall_mutex;
  std::condition_variable stall_cv;
  std::vector<std::atomic<bool>> stall_break;
  std::vector<std::atomic<bool>> in_stall;
  std::atomic<int> stalls_converted{0};
  std::vector<std::unique_ptr<Mailbox>> mailboxes;
};

}  // namespace gbpol::mpisim
