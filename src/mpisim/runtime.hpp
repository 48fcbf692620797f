// Launching entry point for the in-process message-passing runtime.
//
// Runtime::run starts `ranks` OS threads, hands each a Comm, executes the
// same rank function on all of them (SPMD, like mpirun), waits for every
// rank, and returns per-rank accounting plus the modeled cluster makespan:
//
//   modeled_seconds = max over ranks of (measured compute
//                                        + modeled straggler surplus
//                                        + modeled comm)
//
// Compute time is the rank's measured thread-CPU time (plus any worker-pool
// busy time the rank registered), so load imbalance is real, not assumed;
// only the network — and any injected perturbation from Config::faults —
// is analytic. This is the substitution that lets the paper's 144-core
// experiments run on any machine (see DESIGN.md).
//
// One job body: Runtime::run is a one-shot PersistentPool (pool.hpp), so a
// job run on fresh threads and a job run on a service's resident threads
// execute the same per-rank step, supervisor and finalize, and return the
// same RunReport.
//
// Failure contract. A rank scheduled to die (Config::faults) throws
// RankKilled from its collective entry; the rank retires, keeps its
// accounting, and the report is marked degraded. Rank functions wanting to
// SURVIVE peer death use the `_ft` collectives (comm.hpp) and run their own
// recovery; the plain collectives throw CommFailure instead of deadlocking.
// A rank that throws anything other than RankKilled fails the JOB, never
// the process: it retires with the death path's bookkeeping, raises
// kill_all so its peers abandon at their next poll or collective entry,
// and run() rethrows the first such exception once every rank has drained.
//
// Supervisor watchdog: with Config::stall_timeout_seconds > 0 the runtime
// runs a monitor thread sampling each rank's logical-progress heartbeat
// (bumped at collective entries and checkpoint polls). A live rank whose
// heartbeat stagnates past the timeout is presumed stalled and converted
// into a death — the rank leaves through the ordinary death path and the
// existing recovery protocol takes over. Ranks merely blocked at barriers
// also look stagnant, but conversion only actuates ranks parked in the
// stall state, so the false positives are harmless.
//
// Process kill: Config::kill arms a deterministic whole-process SIGKILL
// model (KillPlan, faults.hpp). The report's `killed` flag tells the driver
// the run ended by kill, not by answer.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "mpisim/cluster.hpp"
#include "mpisim/comm.hpp"
#include "mpisim/faults.hpp"
#include "support/error_class.hpp"

namespace gbpol::mpisim {

struct RankResult {
  double compute_seconds = 0.0;
  // Modeled surplus from an injected straggler slowdown; reported in the
  // compute channel (max_compute_seconds) so makespans reflect it.
  double straggler_seconds = 0.0;
  double comm_seconds = 0.0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t retries = 0;                   // retransmits + aborted collectives
  std::uint64_t redistributed_work_items = 0;  // recomputed for dead peers
  std::uint64_t migrated_chunks = 0;           // computed for the balancer on
                                               // behalf of another rank's split
  // Data-integrity accounting (see CorruptionPlan, faults.hpp).
  std::uint64_t corruption_injected = 0;
  std::uint64_t corruption_detected = 0;
  std::uint64_t corruption_recomputed = 0;
  std::uint64_t corruption_retransmits = 0;
  bool died = false;
};

struct RunReport {
  std::vector<RankResult> ranks;
  double wall_seconds = 0.0;
  std::uint64_t retries = 0;                   // sum over ranks
  std::uint64_t redistributed_work_items = 0;  // sum over ranks
  std::uint64_t migrated_chunks = 0;           // sum over ranks
  std::uint64_t corruption_injected = 0;       // sum over ranks
  std::uint64_t corruption_detected = 0;       // sum over ranks
  std::uint64_t corruption_recomputed = 0;     // sum over ranks
  std::uint64_t corruption_retransmits = 0;    // sum over ranks
  bool degraded = false;                       // at least one rank died
  bool killed = false;                         // KillPlan fired; no answer
  int stalls_converted = 0;                    // stalls turned into deaths
  ErrorClass error_class = ErrorClass::kNone;  // campaign-level triage

  double modeled_seconds() const;
  double max_compute_seconds() const;
  double max_comm_seconds() const;
  std::uint64_t total_bytes_sent() const;
};

class Runtime {
 public:
  struct Config {
    int ranks = 1;
    int threads_per_rank = 1;  // used for placement; rank fn spawns its own pool
    ClusterModel cluster = ClusterModel::lonestar4();
    FaultPlan faults;          // empty by default: fault-free run
    KillPlan kill;             // disarmed by default
    // Silent-corruption injection schedule (empty = no corruption) and the
    // integrity-guard master switch. Guards ON is the production posture;
    // OFF lets corrupted bytes flow undetected — canary tests only.
    CorruptionPlan corruption;
    bool integrity_guards = true;
    // Fail-fast safety net for recv: wall-clock bound after which a blocked
    // receive reports CommError::kTimeout instead of hanging CI. Generous on
    // purpose — deterministic schedules never hit it. <= 0 disables it.
    double recv_watchdog_seconds = 120.0;
    // Supervisor watchdog: heartbeat stagnation bound after which a live
    // rank is presumed stalled and converted to a death. <= 0 disables the
    // supervisor (an injected stall then hangs until the recv watchdog or
    // CI timeout fires — the unsupervised baseline).
    double stall_timeout_seconds = 0.0;
  };

  // Blocks until every rank returns. Rethrows the first exception other
  // than RankKilled that a rank function threw (see the failure contract
  // above).
  static RunReport run(const Config& config,
                       const std::function<void(Comm&)>& rank_fn);
};

}  // namespace gbpol::mpisim
