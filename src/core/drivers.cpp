#include "core/drivers.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <span>

#include "core/balance.hpp"
#include "core/engine.hpp"
#include "core/halo_exchange.hpp"
#include "core/kernels_simd.hpp"
#include "mpisim/pool.hpp"
#include "mpisim/runtime.hpp"
#include "obs/trace.hpp"
#include "support/checksum.hpp"
#include "support/timer.hpp"
#include "ws/parallel_for.hpp"
#include "ws/scheduler.hpp"

namespace gbpol {
namespace {

// 12000 is the owned-mode Born halo exchange (core/halo_exchange.cpp);
// 12001 gathers the owned Born slices to the writer at the end of an owned
// oct_canonical run.
constexpr int kTagOwnedBorn = 12001;

// Surviving ranks in ascending order (`dead` is ascending, per Comm).
std::vector<int> live_ranks(int ranks, const std::vector<int>& dead) {
  std::vector<int> live;
  live.reserve(static_cast<std::size_t>(ranks) - dead.size());
  auto it = dead.begin();
  for (int r = 0; r < ranks; ++r) {
    if (it != dead.end() && *it == r) {
      ++it;
      continue;
    }
    live.push_back(r);
  }
  return live;
}

int index_of(const std::vector<int>& live, int rank) {
  return static_cast<int>(std::lower_bound(live.begin(), live.end(), rank) -
                          live.begin());
}

// A recovering survivor's share of the dead executors' chunks: every
// `parts`-th of them (a plan-derived list, identical on every survivor),
// from slot `my`, minus the chunks already published — a rank dying at a
// collective entry has published its current-phase chunks.
std::vector<std::uint32_t> recovery_stripe(const std::vector<int>& executor,
                                           const std::vector<int>& dead, int my,
                                           int parts, const ChunkLedger& ledger) {
  std::vector<std::uint32_t> orphans;
  for (std::uint32_t c = 0; c < executor.size(); ++c)
    if (std::binary_search(dead.begin(), dead.end(), executor[c])) orphans.push_back(c);
  std::vector<std::uint32_t> stripe;
  for (std::size_t i = static_cast<std::size_t>(my); i < orphans.size();
       i += static_cast<std::size_t>(parts))
    if (!ledger.done(orphans[i])) stripe.push_back(orphans[i]);
  return stripe;
}

// Makespan of `seconds`, in order, greedily list-scheduled over p workers:
// each next chunk goes to the worker that frees up first.
double list_schedule_makespan(std::span<const double> seconds, int p) {
  std::vector<double> free_at(static_cast<std::size_t>(p), 0.0);
  for (const double s : seconds) *std::min_element(free_at.begin(), free_at.end()) += s;
  return *std::max_element(free_at.begin(), free_at.end());
}

// Wraps one unit of dispatched work in kChunkDispatch/kChunkDone events plus
// service-time accounting. The session check keeps the un-traced hot path
// free of even the clock reads. Returns the service nanoseconds (0 when
// untraced); with `record` false the caller records them instead — a pool
// worker's caller does, because a rank's metrics slot has one writer, the
// rank thread.
template <typename Body>
std::uint64_t traced_chunk(std::uint64_t lo, std::uint64_t hi, obs::PhaseId phase,
                           Body&& body, bool record = true) {
  if (!obs::session_active()) {
    body();
    return 0;
  }
  const auto arg = static_cast<std::uint8_t>(phase);
  obs::emit(obs::EventKind::kChunkDispatch, lo, hi, arg);
  WallTimer timer;
  body();
  const auto ns = static_cast<std::uint64_t>(timer.seconds() * 1e9);
  if (record) obs::add_chunk_service(obs::current_rank(), ns);
  obs::emit(obs::EventKind::kChunkDone, lo, hi, arg);
  return ns;
}

// Scheduled snapshot-byte corruption (CorruptionPlan::SnapshotBytes): flip
// one bit of a just-committed snapshot file, anywhere past the 8-byte magic
// (body or trailing CRC — either way read_snapshot's CRC check rejects the
// file on the next resume, which falls back to the older cursor/phase).
void corrupt_snapshot_file(const std::string& path, std::uint64_t bit) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  if (!f) return;
  f.seekg(0, std::ios::end);
  const std::streamoff size = f.tellg();
  constexpr std::streamoff kMagicBytes = 8;
  if (size <= kMagicBytes) return;
  const std::uint64_t pos =
      bit % (static_cast<std::uint64_t>(size - kMagicBytes) * 8);
  const std::streamoff byte_at = kMagicBytes + static_cast<std::streamoff>(pos / 8);
  f.seekg(byte_at);
  char byte = 0;
  if (!f.read(&byte, 1)) return;
  byte = static_cast<char>(byte ^ static_cast<char>(1u << (pos % 8)));
  f.seekp(byte_at);
  f.write(&byte, 1);
}

// Integrity words folded into every checkpoint job key (satellite of the
// data-integrity layer): a store written under a different guard posture or
// checksum scheme is never resumed from.
constexpr std::uint64_t kIntegrityTag = 0x1D7E6u;
std::uint64_t integrity_job_word(bool guards_on) {
  return ckpt::fnv1a64({kIntegrityTag, support::kIntegrityEpoch,
                        static_cast<std::uint64_t>(support::kChecksumBlockBytes),
                        guards_on ? 1ull : 0ull});
}

// The words every checkpoint job key folds in besides its chunk geometry:
// the integrity posture, the resolved near-kernel tier and the E_pol
// near-list format. Tiers agree only to ~1e-10, and near-list formats
// reassociate every mirrored pair, so a store written under another tier or
// format is never resumed — a mixed resume would match neither
// uninterrupted run.
std::uint64_t kernel_job_word(bool guards_on) {
  constexpr std::uint64_t kMirroredNearPairs = 0x4A1Full;  // near-list format
  return ckpt::fnv1a64({integrity_job_word(guards_on),
                        static_cast<std::uint64_t>(simd_dispatch()), kMirroredNearPairs});
}

// The per-rank runtime accounting every distributed driver reports as-is.
void absorb_report(RunResult& result, const mpisim::RunReport& report) {
  result.compute_seconds = report.max_compute_seconds();
  result.comm_seconds = report.max_comm_seconds();
  result.retries = report.retries;
  result.redistributed_work_items = report.redistributed_work_items;
  result.migrated_chunks = report.migrated_chunks;
  result.corruption_injected = report.corruption_injected;
  result.corruption_detected = report.corruption_detected;
  result.corruption_recomputed = report.corruption_recomputed;
  result.corruption_retransmits = report.corruption_retransmits;
  result.degraded = report.degraded;
  result.killed = report.killed;
  result.stalls_converted = report.stalls_converted;
  result.error_class = report.error_class;
  result.rank_results = report.ranks;
}

}  // namespace

namespace detail {

RunResult oct_serial(const Prepared& prep, const ApproxParams& params,
                     const GBConstants& constants, TraversalMode traversal) {
  RunResult result;
  WallTimer wall;
  ThreadCpuTimer cpu;
  const bool walk = traversal == TraversalMode::kList;

  const BornSolver born_solver(prep, params);
  BornAccumulator acc = born_solver.make_accumulator();
  const auto n_qleaves = static_cast<std::uint32_t>(prep.q_tree.leaves().size());
  if (walk)
    born_solver.accumulate_walk(0, n_qleaves, acc);
  else
    born_solver.accumulate_qleaf_range(0, n_qleaves, acc);

  result.born_sorted.assign(prep.num_atoms(), 0.0);
  born_solver.push_to_atoms(acc, 0, static_cast<std::uint32_t>(prep.num_atoms()),
                            result.born_sorted);

  const EpolSolver epol_solver(prep, result.born_sorted, params, constants);
  const auto n_aleaves = static_cast<std::uint32_t>(prep.atoms_tree.leaves().size());
  if (walk) {
    double raw_far = 0.0, raw_near = 0.0;
    epol_solver.accumulate_energy_walk(0, n_aleaves, raw_far, raw_near);
    result.energy = epol_solver.finish_energy_pair(raw_far, raw_near);
  } else {
    result.energy = epol_solver.energy_for_leaf_range(0, n_aleaves);
  }

  result.compute_seconds = cpu.seconds();
  result.wall_seconds = wall.seconds();
  result.replicated_bytes = prep.replicated_footprint().bytes;
  return result;
}

RunResult oct_atom_based(const Prepared& prep, const ApproxParams& params,
                         const GBConstants& constants, const RunOptions& options) {
  // From driver entry, so host-side planning counts toward wall_seconds.
  WallTimer wall;
  RunResult result;
  result.ranks = std::max(1, options.ranks);
  const int P = result.ranks;

  const BornSolver born_solver(prep, params);
  const std::uint32_t n_atoms = static_cast<std::uint32_t>(prep.num_atoms());
  const std::uint32_t n_qleaves = static_cast<std::uint32_t>(prep.q_tree.leaves().size());

  std::vector<double> born_shared(prep.num_atoms(), 0.0);  // filled by rank 0
  double energy_shared = 0.0;

  mpisim::Runtime::Config rt;
  rt.ranks = P;
  rt.cluster = options.cluster;
  rt.faults = options.faults;
  rt.stall_timeout_seconds = options.stall_timeout_seconds;
  rt.corruption = options.corruption;
  rt.integrity_guards = options.integrity_guards;

  // This ablation has no recovery protocol, so route() refuses deaths and
  // stalls; the plain collectives would fail the job with CommFailure.
  const auto report = mpisim::run_on(options.pool, rt, [&](mpisim::Comm& comm) {
    const int r = comm.rank();

    // ---- Step 2: approximated integrals for this rank's Q-leaf segment.
    obs::phase_begin(obs::PhaseId::kBornAccum);
    const Segment q_seg = even_segment(n_qleaves, P, r);
    BornAccumulator acc = born_solver.make_accumulator();
    traced_chunk(q_seg.lo, q_seg.hi, obs::PhaseId::kBornAccum, [&] {
      mpisim::Comm::ComputeRegion region(comm);
      born_solver.accumulate_walk(q_seg.lo, q_seg.hi, acc);
    });

    // ---- Step 3: gather partial integrals from every rank.
    obs::phase_begin(obs::PhaseId::kBornReduce);
    comm.allreduce_sum(acc.flat());

    // ---- Step 4: Born radii for this rank's atom segment.
    obs::phase_begin(obs::PhaseId::kPush);
    const Segment a_seg = even_segment(n_atoms, P, r);
    std::vector<double> born(prep.num_atoms(), 0.0);
    traced_chunk(a_seg.lo, a_seg.hi, obs::PhaseId::kPush, [&] {
      mpisim::Comm::ComputeRegion region(comm);
      born_solver.push_to_atoms(acc, a_seg.lo, a_seg.hi, born);
    });

    // ---- Step 5: gather all Born-radius segments.
    obs::phase_begin(obs::PhaseId::kBornGather);
    std::vector<int> counts(static_cast<std::size_t>(P)), displs(static_cast<std::size_t>(P));
    for (int i = 0; i < P; ++i) {
      const Segment s = even_segment(n_atoms, P, i);
      counts[static_cast<std::size_t>(i)] = static_cast<int>(s.count());
      displs[static_cast<std::size_t>(i)] = static_cast<int>(s.lo);
    }
    comm.allgatherv<double>({born.data() + a_seg.lo, a_seg.count()}, born, counts, displs);

    // ---- Step 6: partial energy for this rank's atom segment.
    obs::phase_begin(obs::PhaseId::kEpol);
    double partial[1] = {0.0};
    // Bin construction is replicated per rank; count it as compute.
    std::unique_ptr<EpolSolver> epol_solver;
    {
      mpisim::Comm::ComputeRegion region(comm);
      epol_solver = std::make_unique<EpolSolver>(prep, born, params, constants);
    }
    traced_chunk(a_seg.lo, a_seg.hi, obs::PhaseId::kEpol, [&] {
      mpisim::Comm::ComputeRegion region(comm);
      partial[0] = epol_solver->energy_for_atom_range(a_seg.lo, a_seg.hi);
    });

    // ---- Step 7: master accumulates the final energy.
    obs::phase_begin(obs::PhaseId::kEpolReduce);
    comm.reduce_sum(partial, 0);
    if (r == 0) {
      energy_shared = partial[0];
      std::copy(born.begin(), born.end(), born_shared.begin());
    }
    obs::phase_end();
  });

  result.energy = energy_shared;
  result.born_sorted = std::move(born_shared);
  result.wall_seconds = wall.seconds();
  absorb_report(result, report);
  // Replicated-data accounting: every rank holds a full copy of the trees,
  // payloads, accumulator and Born array (paper §V-B memory comparison).
  result.replicated_bytes = static_cast<std::size_t>(P) *
                            (prep.replicated_footprint().bytes +
                             born_solver.make_accumulator().flat().size_bytes() +
                             static_cast<std::size_t>(n_atoms) * sizeof(double));
  return result;
}

// ---------------------------------------------------------------------------
// Canonical chunk-fold driver with cross-rank balancing, for both data
// distributions (core/balance.hpp; DESIGN.md "Load balancing" and "Domain
// decomposition & halo exchange").
//
// Work is cut into fixed, policy-independent chunks; each chunk's partial is
// computed fresh-from-zero by whichever rank the plan (or death recovery, or
// a checkpoint restore) hands it to — on the rank thread, or on a pool
// worker of a hybrid rank — and every rank folds the partials in ascending
// chunk order. The fold's result depends only on the chunk boundaries —
// never on the assignment, the thread or the data distribution — so
// kStatic, kCostModel and kSteal agree to the last bit, replicated and
// owned runs agree to the last bit, P x p agrees with (P*p) x 1 (OCT_CILK
// is the 1 x p shape), and so do recovered and resumed runs.
//
// Each phase synchronizes on a 1-double token allreduce whose abort is the
// death-recovery point — deaths fire only at collective entries, so a rank
// that dies there has already finished and published its chunks for the
// current phase; only its NEXT-phase chunks ever need recovery.
//
// Both distributions share one ownership map: each rank OWNS a
// Morton-contiguous range of leaves (core/halo_exchange.hpp), built
// host-side from the chunk plans, identical on every rank, and hashed into
// the checkpoint job key and every snapshot, so a restart provably resumes
// the same redistribution. Every rank folds only the accumulator elements
// serving its owned atoms and pushes only those atoms; radii it does not
// hold stay NaN (a missing import poisons the energy instead of silently
// reading zeros). Recovery reads of radii a rank does not hold (dead ranks'
// slices, stolen recovery chunks) are served by reconstruct_born. The
// distribution decides only how the other radii arrive:
//
//  * kReplicated: owned mode with every leaf resident. One allgatherv of
//    the pushed radii gives every rank the identical full Born array, from
//    which it builds its own E_pol far-field store.
//  * kOwned: each rank holds only its owned leaves plus a planned HALO
//    instead of the molecule's whole point payload. The far field comes
//    from three exchanges: the Born halo p2p, an extrema allreduce_min, and
//    an allgatherv of owned leaf bin rows plus a local internal re-fold, so
//    the far aggregate store is bit-identical on every rank. The writer
//    finally gathers the owned Born slices p2p.
RunResult oct_canonical(const Prepared& prep, const ApproxParams& params,
                        const GBConstants& constants, const RunOptions& options) {
  // From driver entry, so host-side planning counts toward wall_seconds.
  WallTimer wall;
  RunResult result;
  result.ranks = std::max(1, options.ranks);
  result.threads_per_rank = std::max(1, options.threads_per_rank);
  const int P = result.ranks;
  const int p = result.threads_per_rank;
  const bool owned = options.distribution == DataDistribution::kOwned;

  const BornSolver born_solver(prep, params);
  const std::uint32_t n_atoms = static_cast<std::uint32_t>(prep.num_atoms());
  const std::uint32_t n_qleaves = static_cast<std::uint32_t>(prep.q_tree.leaves().size());
  const std::uint32_t n_aleaves = static_cast<std::uint32_t>(prep.atoms_tree.leaves().size());
  const std::size_t acc_len = born_solver.make_accumulator().flat().size();

  // Chunk geometry + per-chunk cost estimates: identical on every rank, and
  // independent of the policy (the fold's determinism rests on that). The
  // auto geometry counts every worker thread, so P x p and (P*p) x 1 cut the
  // same chunks and agree to the bit.
  //
  // Chunks are priced from the planning walks (walk_planning): a source
  // leaf costs its near-field point pairs (target points x source points
  // per near entry) plus one aggregated evaluation per source point for
  // each far entry. Occupancy x total — the coarser interaction_costs
  // overload — under-prices dense regions, because near-field work grows
  // with the neighbourhood's density, not just the leaf's own count. The
  // walks are pure geometry (no Born values), so both phases are priced
  // before phase 1 runs. kStatic even-splits regardless of the costs, so a
  // replicated kStatic run skips the walks and stays walk-free; owned runs
  // need them under every policy, because the halo plan reads their near
  // rows.
  const ChunkPlan born_plan = make_chunk_plan(n_qleaves, P * p, options.balance_chunk_leaves);
  const ChunkPlan epol_plan = make_chunk_plan(n_aleaves, P * p, options.balance_chunk_leaves);
  PlanningWalks walks;
  if (owned || options.balance != BalancePolicy::kStatic)
    walks = walk_planning(prep, params);
  std::vector<double> born_costs(born_plan.n_chunks, 0.0);
  std::vector<double> epol_costs(epol_plan.n_chunks, 0.0);
  if (options.balance != BalancePolicy::kStatic) {
    born_costs = chunk_costs(born_plan, walks.born.interactions);
    epol_costs = chunk_costs(epol_plan, walks.epol.interactions);
  }
  const BalanceAssignment plan_born = plan_balance(born_costs, P, options.balance);
  const BalanceAssignment plan_epol = plan_balance(epol_costs, P, options.balance);
  result.steal_grants = plan_born.steals.size() + plan_epol.steals.size();
  const auto born_steals = steals_by_thief(plan_born, P);
  const auto epol_steals = steals_by_thief(plan_epol, P);
  const std::vector<int> born_executor = executor_of(plan_born, born_plan.n_chunks);
  const std::vector<int> epol_executor = executor_of(plan_epol, epol_plan.n_chunks);

  // Ownership map: host-side, plan-derived, identical on every rank. Every
  // run has one — a replicated rank folds and pushes only its owned atoms
  // too, then allgathers the radii. The halo plan (kOwned only) follows the
  // EXECUTOR chunk assignment, so a policy change (different steals) changes
  // the halo; a replicated run has every leaf resident and no halo.
  const OwnershipMap ownership = make_ownership_map(prep, P, born_plan, epol_plan);
  HaloPlan halo;
  if (owned)
    halo = build_halo_plan(prep, walks, ownership, plan_born, born_plan, plan_epol,
                           epol_plan);
  walks = PlanningWalks{};  // planning-only: release before the ranks run
  const std::uint64_t ownership_hash = ownership.hash();
  const std::uint64_t halo_hash = owned ? halo.hash() : 0;

  // Shared cross-rank state: each chunk slot is written by exactly one rank
  // (ledger discipline), then read by all after the phase sync's barrier.
  // Each Born chunk's accumulator is allocated and filled on the thread
  // (rank or pool worker) that computes it, so that thread first-touches its
  // pages — NUMA-local on multi-socket hosts.
  std::vector<BornAccumulator> born_partials(born_plan.n_chunks);
  std::vector<std::array<double, 2>> epol_raws(epol_plan.n_chunks,
                                               std::array<double, 2>{0.0, 0.0});
  ChunkLedger born_ledger(born_plan.n_chunks);
  ChunkLedger epol_ledger(epol_plan.n_chunks);
  std::vector<double> born_shared(prep.num_atoms(), 0.0);
  double energy_shared = 0.0;

  // Integrity epoch guards over the shared hot arrays: the executor seals a
  // CRC of each chunk's pristine partial right after computing it (ledger
  // discipline: each slot written by exactly one rank), and re-verifies its
  // own chunks at every phase boundary — immediately before the token
  // allreduce, whose barrier publishes any repair before any rank folds.
  // Only allocated/active when a corruption schedule exists (zero overhead
  // on the default path).
  std::vector<std::uint32_t> born_crcs(
      options.corruption.empty() ? 0 : born_plan.n_chunks, 0u);
  std::vector<std::uint32_t> epol_crcs(
      options.corruption.empty() ? 0 : epol_plan.n_chunks, 0u);

  // ---- Checkpoint/restart. The job key covers the chunk geometry and the
  // ownership + halo hashes but NOT the balance policy. The ownership map is
  // policy-independent and a replicated run's halo hash is zero, so
  // replicated snapshots are policy-portable: a restored chunk's partial is
  // identical wherever (and under whichever policy) it was computed. The
  // owned halo follows the policy's steals, so owned snapshots are
  // deliberately tied to the plans they were written under. The fifth word
  // names the traversal; it is fixed at kList, the only one this driver
  // walks, and kept so the key format, and every snapshot, stay valid.
  const ckpt::CheckpointPolicy& policy = options.checkpoint;
  const std::uint64_t job_key = ckpt::fnv1a64(
      {n_atoms, n_qleaves, n_aleaves, static_cast<std::uint64_t>(P),
       static_cast<std::uint64_t>(TraversalMode::kList), 0xBA1Aull, born_plan.n_chunks,
       born_plan.chunk_items, epol_plan.n_chunks, epol_plan.chunk_items, 0x04EDull,
       ownership_hash, halo_hash, kernel_job_word(options.integrity_guards),
       policy.job_salt});
  const ckpt::SnapshotStore store(policy.enabled() ? policy.dir : std::string("."),
                                  P, job_key);

  // Every snapshot carries the ownership + halo hashes as one 2-double
  // section right after the phase head; a restore whose plans would
  // redistribute differently is rejected (belt to the job key's suspenders —
  // the key already covers both hashes, this keeps a truncated/corrupt
  // section from slipping by).
  const auto hash_section = [&] {
    std::vector<double> sec(2);
    std::memcpy(&sec[0], &ownership_hash, sizeof(double));
    std::memcpy(&sec[1], &halo_hash, sizeof(double));
    return sec;
  };
  const auto hashes_ok = [&](const ckpt::Snapshot& s, std::size_t at) {
    if (at >= s.sections.size() || s.sections[at].size() != 2) return false;
    std::uint64_t oh = 0, hh = 0;
    std::memcpy(&oh, &s.sections[at][0], sizeof(double));
    std::memcpy(&hh, &s.sections[at][1], sizeof(double));
    return oh == ownership_hash && hh == halo_hash;
  };

  // Restore decision + application, made once up front on the host so every
  // rank agrees on the cut. Restored chunks land directly in the shared
  // arrays and ledgers; each rank also re-adopts its own snapshot's chunk
  // id set so its NEXT snapshot still covers them.
  std::vector<std::vector<std::uint32_t>> restored_born_ids(
      static_cast<std::size_t>(P));
  std::vector<std::vector<std::uint32_t>> restored_epol_ids(
      static_cast<std::size_t>(P));
  std::vector<ckpt::Snapshot> restored;
  bool resume = false;
  if (policy.enabled() && policy.resume) {
    if (auto set = store.load_latest()) {
      bool valid = true;
      std::vector<ckpt::ChunkLedgerSections> ledgers(static_cast<std::size_t>(P));
      for (int rr = 0; rr < P && valid; ++rr) {
        const ckpt::Snapshot& s = (*set)[static_cast<std::size_t>(rr)];
        const auto ledger_ok = [&](const ckpt::ChunkLedgerSections& led,
                                   std::uint32_t n_chunks) {
          if (!led.ok || s.cursor != led.ids.size()) return false;
          for (const std::uint32_t id : led.ids)
            if (id >= n_chunks) return false;
          return true;
        };
        switch (s.phase) {
          case ckpt::Phase::kBornAccum:
            ledgers[static_cast<std::size_t>(rr)] =
                ckpt::read_chunk_ledger(s, 1, acc_len);
            valid = hashes_ok(s, 0) &&
                    ledger_ok(ledgers[static_cast<std::size_t>(rr)], born_plan.n_chunks);
            break;
          case ckpt::Phase::kPush:
            valid = s.sections.size() == 2 && s.sections[0].size() == acc_len &&
                    hashes_ok(s, 1) && s.cursor == 0;
            break;
          case ckpt::Phase::kEpol:
            ledgers[static_cast<std::size_t>(rr)] = ckpt::read_chunk_ledger(s, 2, 2);
            valid = s.sections.size() >= 2 && s.sections[0].size() == n_atoms &&
                    hashes_ok(s, 1) &&
                    ledger_ok(ledgers[static_cast<std::size_t>(rr)], epol_plan.n_chunks);
            break;
        }
      }
      if (valid) {
        restored = std::move(*set);
        resume = true;
        for (int rr = 0; rr < P; ++rr) {
          const ckpt::Snapshot& s = restored[static_cast<std::size_t>(rr)];
          ckpt::ChunkLedgerSections& led = ledgers[static_cast<std::size_t>(rr)];
          if (s.phase == ckpt::Phase::kBornAccum) {
            for (std::size_t i = 0; i < led.ids.size(); ++i) {
              BornAccumulator& partial = born_partials[led.ids[i]];
              partial = born_solver.make_accumulator();
              const std::span<const double> saved = led.partial(i);
              std::copy(saved.begin(), saved.end(), partial.flat().begin());
              born_ledger.mark_done(led.ids[i], rr);
            }
            restored_born_ids[static_cast<std::size_t>(rr)] = std::move(led.ids);
          } else if (s.phase == ckpt::Phase::kEpol) {
            for (std::size_t i = 0; i < led.ids.size(); ++i) {
              epol_raws[led.ids[i]] = {led.partial(i)[0], led.partial(i)[1]};
              epol_ledger.mark_done(led.ids[i], rr);
            }
            restored_epol_ids[static_cast<std::size_t>(rr)] = std::move(led.ids);
          }
        }
      }
    }
  }
  const ckpt::Phase resume_phase = resume ? restored[0].phase : ckpt::Phase::kBornAccum;

  // Seal restored chunks' CRCs host-side so the phase-boundary verification
  // treats them as clean (they passed the snapshot CRC on the way in).
  if (!options.corruption.empty()) {
    for (std::uint32_t c = 0; c < born_plan.n_chunks; ++c)
      if (born_ledger.done(c))
        born_crcs[c] = support::crc32(born_partials[c].flat().data(),
                                      born_partials[c].flat().size_bytes());
    for (std::uint32_t c = 0; c < epol_plan.n_chunks; ++c)
      if (epol_ledger.done(c))
        epol_crcs[c] =
            support::crc32(epol_raws[c].data(), epol_raws[c].size() * sizeof(double));
  }

  // Intra-rank work stealing (RunResult::steals/tasks), summed over every
  // hybrid rank's pool dispatches.
  std::atomic<std::uint64_t> pool_steals{0};
  std::atomic<std::uint64_t> pool_tasks{0};

  mpisim::Runtime::Config rt;
  rt.ranks = P;
  rt.threads_per_rank = p;
  rt.cluster = options.cluster;
  rt.faults = options.faults;
  rt.kill = options.kill;
  rt.stall_timeout_seconds = options.stall_timeout_seconds;
  rt.corruption = options.corruption;
  rt.integrity_guards = options.integrity_guards;

  const auto report = mpisim::run_on(options.pool, rt, [&](mpisim::Comm& comm) {
    const int r = comm.rank();
    // Hybrid ranks run their chunks on a rank-local work-stealing pool, whose
    // workers inherit this rank's trace identity.
    std::unique_ptr<ws::Scheduler> sched;
    if (p > 1) sched = std::make_unique<ws::Scheduler>(p);
    const bool skip_to_push = resume && resume_phase >= ckpt::Phase::kPush;
    const bool skip_to_epol = resume && resume_phase == ckpt::Phase::kEpol;
    int writer = 0;  // lowest surviving rank; publishes the shared answer

    // The atoms this rank pushes — its owned span, under either
    // distribution — and the accumulator elements serving them, the only
    // ones it folds.
    const Segment my_atoms = ownership.ranks[static_cast<std::size_t>(r)].atoms;
    const std::vector<std::uint32_t> fold_slice =
        acc_fold_slice(prep.atoms_tree, my_atoms);
    if (owned)
      obs::emit(obs::EventKind::kHaloPlan, my_atoms.count(),
                halo.ranks[static_cast<std::size_t>(r)].born_halo_atoms);
    // Dead ranks as of the most recent aborted collective (ascending). The
    // owned p2p stages between collectives consult it: deads can't send.
    std::vector<int> dead_set;

    // Hot-array integrity plumbing: injection fires once per scheduled
    // (rank, phase, chunk) even if the chunk is recomputed afterwards.
    const mpisim::CorruptionSchedule& corr = comm.corruption_schedule();
    std::vector<char> born_fired(corr.empty() ? 0 : born_plan.n_chunks, 0);
    std::vector<char> epol_fired(corr.empty() ? 0 : epol_plan.n_chunks, 0);
    const auto seal = [&](std::span<double> data, std::uint32_t c,
                          std::vector<std::uint32_t>& crcs, std::vector<char>& fired,
                          std::uint32_t array) {
      if (corr.empty()) return;
      const std::size_t bytes = data.size_bytes();
      crcs[c] = support::crc32(data.data(), bytes);
      std::uint64_t bit = 0;
      if (fired[c] == 0 && corr.hot_array_bit(r, array, c, &bit)) {
        fired[c] = 1;
        support::flip_bit(data.data(), bytes, bit);
        comm.note_corruption_injected();
        obs::emit(obs::EventKind::kCorruptionInject, c, bytes, /*site=*/2);
      }
    };
    // Re-checksums this rank's chunks against their seals; any mismatch is a
    // detected hot-array corruption, recovered by recomputing the chunk
    // fresh-from-zero (exact, by the canonical-fold construction).
    const auto verify = [&](const std::vector<std::uint32_t>& ids,
                            const std::vector<std::uint32_t>& crcs,
                            const auto& data_of, const auto& recompute) {
      if (corr.empty() || !comm.integrity_guards()) return;
      for (const std::uint32_t c : ids) {
        const std::span<double> data = data_of(c);
        const std::size_t bytes = data.size_bytes();
        if (support::crc32(data.data(), bytes) == crcs[c]) continue;
        comm.note_corruption_detected();
        obs::emit(obs::EventKind::kCorruptionDetect, c, bytes, /*site=*/2);
        recompute(c);
        comm.note_corruption_recomputed();
        obs::emit(obs::EventKind::kCorruptionRecompute, c, bytes, /*site=*/2);
      }
    };

    std::uint32_t phase_boundaries = 0;
    std::uint64_t snapshot_ordinal = 0;  // per-rank save order, for injection
    const auto boundary_due = [&] {
      const bool due = policy.every_n_collectives > 0 &&
                       phase_boundaries % policy.every_n_collectives == 0;
      ++phase_boundaries;
      return due;
    };
    const auto save_ledger_snapshot =
        [&](ckpt::Phase phase, const std::vector<std::uint32_t>& ids,
            std::vector<std::vector<double>> head) {
          ckpt::Snapshot snap;
          snap.rank = static_cast<std::uint32_t>(r);
          snap.ranks = static_cast<std::uint32_t>(P);
          snap.phase = phase;
          snap.cursor = ids.size();
          snap.job_key = job_key;
          snap.sections = std::move(head);
          snap.sections.push_back(hash_section());
          if (phase != ckpt::Phase::kPush) {  // kPush carries only the accumulator
            const bool born_phase = phase == ckpt::Phase::kBornAccum;
            std::vector<double> packed;
            packed.reserve(ids.size() * (born_phase ? acc_len : 2));
            for (const std::uint32_t id : ids) {
              const std::span<const double> partial =
                  born_phase ? std::span<const double>(born_partials[id].flat())
                             : std::span<const double>(epol_raws[id]);
              packed.insert(packed.end(), partial.begin(), partial.end());
            }
            ckpt::append_chunk_ledger(snap, ids, std::move(packed));
          }
          const std::string path = store.save(snap);
          std::uint64_t snap_bit = 0;
          if (!path.empty() &&
              comm.corruption_schedule().snapshot_bit(r, snapshot_ordinal,
                                                      &snap_bit)) {
            corrupt_snapshot_file(path, snap_bit);
            comm.note_corruption_injected();
            obs::emit(obs::EventKind::kCorruptionInject, snapshot_ordinal, 0,
                      /*site=*/3);
          }
          ++snapshot_ordinal;
        };

    // Fires the planned steal round trips due before processing slot `i` of
    // this rank's order (modeled messages only; the chunks are already in
    // the order vector).
    const auto fire_steals = [&](const std::vector<StealEvent>& evs,
                                 std::size_t& next, std::size_t i,
                                 std::size_t order_size) {
      while (next < evs.size() && evs[next].after_processed == i) {
        const StealEvent& ev = evs[next];
        comm.steal_rpc(ev.victim, static_cast<std::uint64_t>(order_size - i),
                       ev.granted, 16, static_cast<std::size_t>(ev.granted) * 16);
        ++next;
      }
    };

    // Walks this rank's planned chunk order slot by slot: fires the planned
    // steals due before the slot, records its chunk unless it was restored
    // (checkpoint cadence included) and polls for a kill. `compute` runs the
    // not-done chunks with this walk on the rank thread.
    const auto walk_order = [&](const std::vector<std::uint32_t>& order,
                                const std::vector<StealEvent>& steals,
                                const ChunkLedger& ledger, const auto& compute,
                                std::vector<std::uint32_t>& my_ids, const auto& save) {
      std::vector<std::uint32_t> todo;
      for (const std::uint32_t c : order)
        if (!ledger.done(c)) todo.push_back(c);
      compute(todo, [&](const auto& record) {
        std::uint32_t since_save = 0;
        std::size_t next_steal = 0;
        std::size_t k = 0;  // next not-done chunk
        for (std::size_t j = 0; j < order.size(); ++j) {
          fire_steals(steals, next_steal, j, order.size());
          if (k < todo.size() && todo[k] == order[j]) {
            record(k++);
            my_ids.push_back(order[j]);
            if (policy.enabled() && policy.every_k_chunks > 0 &&
                ++since_save >= policy.every_k_chunks) {
              since_save = 0;
              save();
            }
          }
          if (comm.poll_kill()) comm.abandon();
        }
        fire_steals(steals, next_steal, order.size(), order.size());
      });
    };
    // The walk that records every chunk of an n-chunk dispatch in order.
    const auto each = [](std::size_t n) {
      return [n](const auto& record) {
        for (std::size_t k = 0; k < n; ++k) record(k);
      };
    };

    // One Born chunk, fresh-from-zero.
    const auto born_chunk_partial = [&](std::uint32_t c) {
      BornAccumulator out = born_solver.make_accumulator();
      const Segment seg = born_plan.chunk_range(c);
      born_solver.accumulate_walk(seg.lo, seg.hi, out);
      return out;
    };
    // Computes `chunks` fresh-from-zero while `walk(record)` runs on the rank
    // thread; record(k) returns once chunks[k] is computed, then runs its
    // `after`. `body` writes only its own chunk's slot; everything that
    // touches Comm or the ledgers stays on the rank thread. One thread per
    // rank computes chunks[k] inside record(k). A hybrid rank's pool
    // computes them all in one dispatch while the walk records them as they
    // complete, so its snapshots and kill polls fall between chunks as on one
    // thread. The dispatch is charged as its chunks' CPU times greedily
    // list-scheduled over p workers — what p dedicated cores need, however
    // the OS interleaves the pool's threads with other ranks'. If the walk
    // leaves early (a kill), the pool skips the chunks it has not started.
    const auto run_chunks = [&](std::span<const std::uint32_t> chunks,
                                const ChunkPlan& plan, obs::PhaseId phase,
                                const auto& body, const auto& after, const auto& walk) {
      if (!sched) {
        walk([&](std::size_t k) {
          const Segment seg = plan.chunk_range(chunks[k]);
          traced_chunk(seg.lo, seg.hi, phase, [&] {
            mpisim::Comm::ComputeRegion region(comm);
            body(chunks[k]);
          });
          after(chunks[k]);
        });
        return;
      }
      std::vector<double> cpu_seconds(chunks.size(), 0.0);
      std::vector<std::uint64_t> service_ns(chunks.size(), 0);
      const auto done = std::make_unique<std::atomic<bool>[]>(chunks.size());
      std::atomic<bool> stop{false};
      sched->start([&] {
        ws::parallel_for(*sched, 0, chunks.size(), 1, [&](std::size_t lo, std::size_t hi) {
          for (std::size_t k = lo; k < hi; ++k) {
            if (!stop.load(std::memory_order_relaxed)) {
              const Segment seg = plan.chunk_range(chunks[k]);
              const ThreadCpuTimer timer;
              service_ns[k] = traced_chunk(seg.lo, seg.hi, phase,
                                           [&] { body(chunks[k]); }, /*record=*/false);
              cpu_seconds[k] = timer.seconds();
            }
            done[k].store(true, std::memory_order_release);
            done[k].notify_one();
          }
        });
      });
      // The pool is joined however the walk leaves, an abandon included:
      // its tasks reference this frame.
      const auto join = [&] {
        stop.store(true, std::memory_order_relaxed);
        sched->join();
        const ws::Scheduler::Stats st = sched->stats();
        sched->reset_stats();
        pool_steals.fetch_add(st.steals, std::memory_order_relaxed);
        pool_tasks.fetch_add(st.tasks_executed, std::memory_order_relaxed);
      };
      try {
        walk([&](std::size_t k) {
          done[k].wait(false, std::memory_order_acquire);
          after(chunks[k]);
        });
      } catch (...) {
        join();
        throw;
      }
      join();
      comm.add_compute_seconds(list_schedule_makespan(cpu_seconds, p));
      if (obs::session_active())
        for (const std::uint64_t ns : service_ns) obs::add_chunk_service(obs::current_rank(), ns);
    };

    // Born chunks into their shared slots. `recompute` marks an integrity
    // recompute: no migration accounting, and the seal records the clean CRC
    // (the fired flag stops a second injection).
    const auto compute_born_chunks = [&](std::span<const std::uint32_t> chunks,
                                         const auto& walk, bool recompute = false) {
      run_chunks(
          chunks, born_plan, obs::PhaseId::kBornAccum,
          [&](std::uint32_t c) { born_partials[c] = born_chunk_partial(c); },
          [&](std::uint32_t c) {
            seal(born_partials[c].flat(), c, born_crcs, born_fired,
                 mpisim::CorruptionPlan::kBornPartials);
            if (!recompute && plan_born.initial_rank[c] != r) comm.add_migrated_chunk();
            born_ledger.mark_done(c, r);
          },
          walk);
    };

    const auto verify_born = [&](const std::vector<std::uint32_t>& ids) {
      verify(
          ids, born_crcs, [&](std::uint32_t c) { return born_partials[c].flat(); },
          [&](std::uint32_t c) { compute_born_chunks({&c, 1}, each(1), /*recompute=*/true); });
    };

    // ---- Born accumulation over this rank's planned chunk order.
    obs::phase_begin(obs::PhaseId::kBornAccum);
    std::vector<std::uint32_t> my_born_ids = restored_born_ids[static_cast<std::size_t>(r)];
    const auto save_born = [&] {
      save_ledger_snapshot(ckpt::Phase::kBornAccum, my_born_ids, {});
    };
    if (!skip_to_push) {
      if (policy.enabled()) save_born();
      walk_order(plan_born.order[static_cast<std::size_t>(r)],
                 born_steals[static_cast<std::size_t>(r)], born_ledger,
                 compute_born_chunks, my_born_ids, save_born);
    }

    // Drives one fault-tolerant collective to success. After an abort every
    // survivor runs `on_abort(live, dead)`, then the lowest survivor — the
    // writer from now on — republishes each dead rank's payload, built by
    // `proxy_for(dead_rank)`.
    const auto until_ok = [&](const auto& collective, const auto& on_abort,
                              const auto& proxy_for) {
      std::vector<int> proxied;
      std::vector<std::vector<double>> payloads;
      for (;;) {
        std::vector<mpisim::ProxyPub> pubs;
        pubs.reserve(proxied.size());
        for (std::size_t i = 0; i < proxied.size(); ++i)
          pubs.push_back({proxied[i], payloads[i].data()});
        const mpisim::CollectiveStatus st = collective(std::span<const mpisim::ProxyPub>(pubs));
        if (st.ok()) return;
        if (comm.kill_requested()) comm.abandon();
        dead_set = st.dead;
        const std::vector<int> live = live_ranks(P, st.dead);
        writer = live.front();
        on_abort(live, st.dead);
        proxied.clear();
        payloads.clear();
        if (r != writer) continue;
        proxied = st.dead;
        for (const int d : proxied) payloads.push_back(proxy_for(d));
      }
    };
    const auto no_recovery = [](const std::vector<int>&, const std::vector<int>&) {};

    // ---- Phase sync: 1-double token allreduce. An abort is the recovery
    // point: survivors stripe the dead executors' chunks and recompute the
    // unpublished ones. A dead rank's CURRENT-phase chunks are usually all
    // published (deaths fire at collective entry), but its next-phase order
    // is orphaned wholesale, and a cascade can orphan recovery stripes too;
    // recomputing fresh-from-zero is always exact. Integrity gate: every
    // chunk this rank published (including death-recovery recomputes from a
    // prior iteration, which can fire fresh injections) must verify before
    // the collective succeeds and any rank starts folding.
    const auto sync_phase = [&](const auto& verify_ids, const std::vector<int>& executor,
                                const ChunkLedger& ledger, const ChunkPlan& plan,
                                const auto& recompute, std::vector<std::uint32_t>& my_ids,
                                const auto& save) {
      double token[1] = {0.0};
      until_ok(
          [&](std::span<const mpisim::ProxyPub> pubs) {
            verify_ids(my_ids);
            return comm.allreduce_sum_ft(token, pubs);
          },
          [&](const std::vector<int>& live, const std::vector<int>& dead) {
            const std::vector<std::uint32_t> stripe = recovery_stripe(
                executor, dead, index_of(live, r), static_cast<int>(live.size()), ledger);
            recompute(stripe, each(stripe.size()));
            for (const std::uint32_t c : stripe) {
              my_ids.push_back(c);
              comm.add_redistributed_work(plan.chunk_range(c).count());
            }
            if (policy.enabled() && !stripe.empty()) save();
          },
          [](int) { return std::vector<double>{0.0}; });
    };
    obs::phase_begin(obs::PhaseId::kBornReduce);
    if (!skip_to_push)
      sync_phase(verify_born, born_executor, born_ledger, born_plan, compute_born_chunks,
                 my_born_ids, save_born);

    // ---- Canonical fold, its data motion (each rank reading every chunk's
    // partial) charged as one modeled allgatherv. A rank folds only the
    // elements serving its owned atoms (their subtree path + own slots), so
    // the charged motion is n_chunks * |slice|, not n_chunks * acc_len. The
    // slice visits every element in ascending chunk order, so it matches a
    // full fold element by element, to the bit.
    BornAccumulator acc = born_solver.make_accumulator();
    if (skip_to_push && !skip_to_epol) {
      const ckpt::Snapshot& snap = restored[static_cast<std::size_t>(r)];
      std::copy(snap.sections[0].begin(), snap.sections[0].end(),
                acc.flat().begin());
    } else if (!skip_to_epol) {
      comm.charge_collective(obs::CollKind::kAllgatherv,
                             static_cast<std::size_t>(born_plan.n_chunks) *
                                 fold_slice.size() * sizeof(double));
      mpisim::Comm::ComputeRegion region(comm);
      const std::span<double> flat = acc.flat();
      for (std::uint32_t c = 0; c < born_plan.n_chunks; ++c) {
        const double* partial = born_partials[c].flat().data();
        for (const std::uint32_t idx : fold_slice) flat[idx] += partial[idx];
      }
    }
    if (!skip_to_epol && policy.enabled() && boundary_due())
      save_ledger_snapshot(
          ckpt::Phase::kPush, {},
          {std::vector<double>(acc.flat().begin(), acc.flat().end())});

    // ---- Push this rank's owned atoms. Radii outside them (and, owned, the
    // halo) stay NaN: a read of radii that never arrived poisons the energy
    // instead of silently reading zeros — the 0-ulp equivalence tests lean
    // on this.
    obs::phase_begin(obs::PhaseId::kPush);
    std::vector<double> born(prep.num_atoms(), std::numeric_limits<double>::quiet_NaN());
    if (skip_to_epol) {
      const ckpt::Snapshot& snap = restored[static_cast<std::size_t>(r)];
      std::copy(snap.sections[0].begin(), snap.sections[0].end(), born.begin());
    } else {
      traced_chunk(my_atoms.lo, my_atoms.hi, obs::PhaseId::kPush, [&] {
        mpisim::Comm::ComputeRegion region(comm);
        born_solver.push_to_atoms(acc, my_atoms.lo, my_atoms.hi, born);
      });
    }

    // Degraded-path Born reconstruction of radii this rank does not hold
    // (dead ranks' slices, owned recovery reads outside the halo): fold
    // EVERYTHING (lazily, once) and assign-push just [lo, hi). Exact because
    // the full fold agrees with the sliced fold per element and push_to_atoms
    // assigns (never accumulates). On a resumed run the chunk partials are
    // gone with the earlier phases, so the fold recomputes every chunk
    // fresh-from-zero in ascending order — same canonical bits, O(N) but
    // degraded-only. Opens its own compute region: call sites must sit
    // OUTSIDE any ComputeRegion.
    std::unique_ptr<BornAccumulator> recovery_acc;
    const auto reconstruct_born = [&](std::uint32_t lo, std::uint32_t hi) {
      mpisim::Comm::ComputeRegion region(comm);
      if (!recovery_acc) {
        recovery_acc =
            std::make_unique<BornAccumulator>(born_solver.make_accumulator());
        for (std::uint32_t c = 0; c < born_plan.n_chunks; ++c) {
          if (skip_to_push)
            recovery_acc->add(born_chunk_partial(c));
          else
            recovery_acc->add(born_partials[c]);
        }
      }
      born_solver.push_to_atoms(*recovery_acc, lo, hi, born);
      comm.add_redistributed_work(hi - lo);
    };

    // ---- Replicated: allgatherv of the pushed radii, so every rank holds
    // every radius (a resumed kEpol snapshot already holds them all). The
    // writer proxies dead ranks with their reconstructed slices.
    if (!owned && !skip_to_epol) {
      obs::phase_begin(obs::PhaseId::kBornGather);
      std::vector<int> counts(static_cast<std::size_t>(P));
      std::vector<int> displs(static_cast<std::size_t>(P));
      for (int rk = 0; rk < P; ++rk) {
        const Segment s = ownership.ranks[static_cast<std::size_t>(rk)].atoms;
        counts[static_cast<std::size_t>(rk)] = static_cast<int>(s.count());
        displs[static_cast<std::size_t>(rk)] = static_cast<int>(s.lo);
      }
      until_ok(
          [&](std::span<const mpisim::ProxyPub> pubs) {
            return comm.allgatherv_ft<double>(
                std::span<const double>(born.data() + my_atoms.lo, my_atoms.count()), born,
                counts, displs, pubs);
          },
          no_recovery,
          [&](int d) {
            const Segment ds = ownership.ranks[static_cast<std::size_t>(d)].atoms;
            std::vector<double> slice(std::max<std::size_t>(ds.count(), 1), 0.0);
            if (ds.count() == 0) return slice;
            reconstruct_born(ds.lo, ds.hi);
            std::copy(born.begin() + ds.lo, born.begin() + ds.hi, slice.begin());
            return slice;
          });
    }

    // ---- E_pol far-field state. A replicated rank holds every radius, so
    // the EpolSolver constructor bins them locally. An owned rank builds the
    // same state from its three exchanges.
    EpolFarField field;
    std::vector<double> node_bins;
    if (owned) {
      const OwnershipMap::RankSpan& own = ownership.ranks[static_cast<std::size_t>(r)];

      // ---- Point-level Born halo exchange (p2p window: death-free).
      obs::phase_begin(obs::PhaseId::kBornGather);
      if (!skip_to_epol)
        exchange_born_halo(comm, prep, ownership, halo, dead_set, born,
                           reconstruct_born);

      // ---- Collective (r_min, r_max): each rank publishes {min, -max} over
      // its owned slice; allreduce_min of exact comparisons is order-free, so
      // the agreed extrema are bit-identical to a replicated minmax scan. The
      // writer proxies dead ranks with extrema over their reconstructed
      // slices.
      const auto extrema = [&](Segment s) {
        mpisim::Comm::ComputeRegion region(comm);
        std::vector<double> mm(2, std::numeric_limits<double>::infinity());
        for (std::uint32_t a = s.lo; a < s.hi; ++a) {
          mm[0] = std::min(mm[0], born[a]);
          mm[1] = std::min(mm[1], -born[a]);
        }
        return mm;
      };
      std::vector<double> mm = extrema(own.atoms);
      until_ok(
          [&](std::span<const mpisim::ProxyPub> pubs) { return comm.allreduce_min_ft(mm, pubs); },
          no_recovery,
          [&](int d) {
            const Segment ds = ownership.ranks[static_cast<std::size_t>(d)].atoms;
            if (ds.count() > 0) reconstruct_born(ds.lo, ds.hi);
            return extrema(ds);
          });
      const double agreed_r_min = n_atoms > 0 ? mm[0] : 1.0;
      const double agreed_r_max = n_atoms > 0 ? -mm[1] : 1.0;
      field = EpolFarField::make(agreed_r_min, agreed_r_max, params.eps_epol);
      const int m_bins = field.m_bins;

      // ---- Bin-level halo: allgatherv of owned leaf bin rows (THE far-field
      // exchange), then scatter into the node store and re-fold the internal
      // rows locally. leaf_bins/fold_internal_bins are the replicated
      // constructor's own loops, so the store matches it bit-for-bit.
      std::vector<int> row_counts(static_cast<std::size_t>(P), 0);
      std::vector<int> row_displs(static_cast<std::size_t>(P), 0);
      int row_total = 0;
      for (int rk = 0; rk < P; ++rk) {
        row_counts[static_cast<std::size_t>(rk)] = static_cast<int>(
            ownership.ranks[static_cast<std::size_t>(rk)].atom_leaves.count() *
            static_cast<std::uint32_t>(m_bins));
        row_displs[static_cast<std::size_t>(rk)] = row_total;
        row_total += row_counts[static_cast<std::size_t>(rk)];
      }
      // The bin rows of a rank's owned leaves, as that rank publishes them.
      const auto leaf_rows = [&](const OwnershipMap::RankSpan& span) {
        mpisim::Comm::ComputeRegion region(comm);
        std::vector<double> rows(
            std::max<std::size_t>(span.atom_leaves.count() * static_cast<std::size_t>(m_bins), 1),
            0.0);
        const std::span<const std::uint32_t> aleaves = prep.atoms_tree.leaves();
        for (std::uint32_t l = span.atom_leaves.lo; l < span.atom_leaves.hi; ++l) {
          const OctreeNode& leaf = prep.atoms_tree.node(aleaves[l]);
          EpolSolver::leaf_bins(prep, born, field, leaf.begin, leaf.end,
                                rows.data() + static_cast<std::size_t>(l - span.atom_leaves.lo) *
                                                  static_cast<std::size_t>(m_bins));
        }
        return rows;
      };
      const std::vector<double> my_rows = leaf_rows(own);
      std::vector<double> gathered(
          std::max<std::size_t>(static_cast<std::size_t>(row_total), 1), 0.0);
      until_ok(
          [&](std::span<const mpisim::ProxyPub> pubs) {
            return comm.allgatherv_ft<double>(
                std::span<const double>(
                    my_rows.data(), static_cast<std::size_t>(row_counts[static_cast<std::size_t>(r)])),
                gathered, row_counts, row_displs, pubs);
          },
          no_recovery,
          [&](int d) {
            const OwnershipMap::RankSpan& dspan = ownership.ranks[static_cast<std::size_t>(d)];
            if (dspan.atoms.count() > 0) reconstruct_born(dspan.atoms.lo, dspan.atoms.hi);
            return leaf_rows(dspan);
          });
      const std::size_t n_anodes = prep.atoms_tree.nodes().size();
      node_bins.assign(n_anodes * static_cast<std::size_t>(m_bins), 0.0);
      {
        mpisim::Comm::ComputeRegion region(comm);
        const std::span<const std::uint32_t> aleaves = prep.atoms_tree.leaves();
        for (int rk = 0; rk < P; ++rk) {
          const Segment ls = ownership.ranks[static_cast<std::size_t>(rk)].atom_leaves;
          for (std::uint32_t l = ls.lo; l < ls.hi; ++l) {
            std::memcpy(node_bins.data() +
                            static_cast<std::size_t>(aleaves[l]) *
                                static_cast<std::size_t>(m_bins),
                        gathered.data() +
                            static_cast<std::size_t>(row_displs[static_cast<std::size_t>(rk)]) +
                            static_cast<std::size_t>(l - ls.lo) *
                                static_cast<std::size_t>(m_bins),
                        static_cast<std::size_t>(m_bins) * sizeof(double));
          }
        }
        EpolSolver::fold_internal_bins(prep.atoms_tree, m_bins, node_bins);
      }
    }

    // ---- E_pol over this rank's planned chunk order (raw far/near sums per
    // chunk; the -tau/2 scale is applied once, after the fold). Owned near
    // entries read the point-level halo.
    obs::phase_begin(obs::PhaseId::kEpol);
    std::unique_ptr<EpolSolver> epol_solver;
    {
      mpisim::Comm::ComputeRegion region(comm);
      epol_solver = owned ? std::make_unique<EpolSolver>(prep, born, params, constants,
                                                         field, node_bins)
                          : std::make_unique<EpolSolver>(prep, born, params, constants);
    }
    // Owned recovery chunks may read radii outside the halo: the rank thread
    // reconstructs their near-field inputs before any chunk runs (a second
    // walk of each chunk, degraded paths only).
    struct MissingRadii {
      const Octree& tree;
      std::span<const double> born;
      const decltype(reconstruct_born)& reconstruct;
      void far(std::uint32_t, std::uint32_t) {}
      void near(std::uint32_t target_leaf, std::uint32_t source_leaf, bool) {
        for (const std::uint32_t node_id : {target_leaf, source_leaf}) {
          const OctreeNode& leaf = tree.node(node_id);
          if (leaf.count() > 0 && std::isnan(born[leaf.begin]))
            reconstruct(leaf.begin, leaf.end);
        }
      }
    };
    const auto compute_epol_chunks = [&](std::span<const std::uint32_t> chunks,
                                         const auto& walk, bool recovery,
                                         bool recompute = false) {
      if (owned && recovery) {
        MissingRadii missing{prep.atoms_tree, born, reconstruct_born};
        for (const std::uint32_t c : chunks) {
          const Segment seg = epol_plan.chunk_range(c);
          walk_interactions(prep.atoms_tree, prep.atoms_tree,
                            epol_solver->list_params(seg.lo, seg.hi), missing);
        }
      }
      run_chunks(
          chunks, epol_plan, obs::PhaseId::kEpol,
          [&](std::uint32_t c) {
            const Segment seg = epol_plan.chunk_range(c);
            epol_raws[c] = {0.0, 0.0};
            epol_solver->accumulate_energy_walk(seg.lo, seg.hi, epol_raws[c][0],
                                                epol_raws[c][1]);
          },
          [&](std::uint32_t c) {
            seal(epol_raws[c], c, epol_crcs, epol_fired,
                 mpisim::CorruptionPlan::kEpolPartials);
            if (!recompute && plan_epol.initial_rank[c] != r) comm.add_migrated_chunk();
            epol_ledger.mark_done(c, r);
          },
          walk);
    };

    // recovery=true is a no-op when a chunk's near inputs are still resident
    // (they are: this rank computed it earlier); it only reconstructs after a
    // degraded path dropped them.
    const auto verify_epol = [&](const std::vector<std::uint32_t>& ids) {
      verify(
          ids, epol_crcs, [&](std::uint32_t c) { return std::span<double>(epol_raws[c]); },
          [&](std::uint32_t c) {
            compute_epol_chunks({&c, 1}, each(1), /*recovery=*/true, /*recompute=*/true);
          });
    };

    std::vector<std::uint32_t> my_epol_ids = restored_epol_ids[static_cast<std::size_t>(r)];
    const auto save_epol = [&] {
      save_ledger_snapshot(ckpt::Phase::kEpol, my_epol_ids, {born});
    };
    if (policy.enabled() && boundary_due()) save_epol();
    walk_order(
        plan_epol.order[static_cast<std::size_t>(r)], epol_steals[static_cast<std::size_t>(r)],
        epol_ledger,
        [&](std::span<const std::uint32_t> todo, const auto& walk) {
          compute_epol_chunks(todo, walk, /*recovery=*/false);
        },
        my_epol_ids, save_epol);

    // ---- E_pol sync + recovery (same token protocol as the Born sync).
    obs::phase_begin(obs::PhaseId::kEpolReduce);
    sync_phase(
        verify_epol, epol_executor, epol_ledger, epol_plan,
        [&](std::span<const std::uint32_t> stripe, const auto& walk) {
          compute_epol_chunks(stripe, walk, /*recovery=*/true);
        },
        my_epol_ids, save_epol);

    // Fold the raw sums in ascending chunk order (identical on every rank)
    // and finish once.
    comm.charge_collective(obs::CollKind::kAllreduce,
                           static_cast<std::size_t>(epol_plan.n_chunks) * 2 *
                               sizeof(double));
    double energy = 0.0;
    {
      mpisim::Comm::ComputeRegion region(comm);
      double totals[2] = {0.0, 0.0};
      for (std::uint32_t c = 0; c < epol_plan.n_chunks; ++c) {
        totals[0] += epol_raws[c][0];
        totals[1] += epol_raws[c][1];
      }
      energy = epol_solver->finish_energy_pair(totals[0], totals[1]);
    }

    // ---- Publish: the lowest survivor writes the shared answer. Replicated
    // ranks all hold every radius. Owned slices stream p2p to the writer
    // (the post-collective window is death-free, so live sends always
    // land), and dead ranks' slices are reconstructed — owned mode's price
    // for not holding everyone's radii.
    if (r == writer) {
      energy_shared = energy;
      if (!owned) {
        std::copy(born.begin(), born.end(), born_shared.begin());
      } else {
        std::copy(born.begin() + my_atoms.lo, born.begin() + my_atoms.hi,
                  born_shared.begin() + my_atoms.lo);
        for (int rk = 0; rk < P; ++rk) {
          if (rk == r) continue;
          const Segment s = ownership.ranks[static_cast<std::size_t>(rk)].atoms;
          if (s.count() == 0) continue;
          bool have = false;
          if (!std::binary_search(dead_set.begin(), dead_set.end(), rk)) {
            const mpisim::RecvStatus rs = comm.recv_ft<double>(
                std::span<double>(born_shared.data() + s.lo, s.count()), rk,
                kTagOwnedBorn);
            have = rs.ok();
          }
          if (!have) {
            reconstruct_born(s.lo, s.hi);
            std::copy(born.begin() + s.lo, born.begin() + s.hi,
                      born_shared.begin() + s.lo);
          }
        }
      }
    } else if (owned && my_atoms.count() > 0) {
      comm.send<double>(
          std::span<const double>(born.data() + my_atoms.lo, my_atoms.count()),
          writer, kTagOwnedBorn);
    }
    obs::phase_end();
  });

  result.energy = energy_shared;
  result.wall_seconds = wall.seconds();
  result.resumed = resume;
  result.steals = pool_steals.load();
  result.tasks = pool_tasks.load();
  absorb_report(result, report);
  result.replicated_bytes =
      static_cast<std::size_t>(P) *
      (prep.replicated_footprint().bytes + acc_len * sizeof(double) +
       static_cast<std::size_t>(n_atoms) * sizeof(double));
  // Logical owned-mode footprint under the final far-field model (bin count
  // depends on the Born extrema, which a killed run never agreed on).
  if (owned && !report.killed) {
    double mn = 1.0, mx = 1.0;
    if (!born_shared.empty()) {
      const auto ext = std::minmax_element(born_shared.begin(), born_shared.end());
      mn = *ext.first;
      mx = *ext.second;
    }
    const EpolFarField final_field = EpolFarField::make(mn, std::max(mx, mn),
                                                        params.eps_epol);
    const OwnedFootprint ofp =
        owned_footprint(prep, ownership, halo, final_field.m_bins);
    result.owned_bytes_per_rank = ofp.max_rank_bytes();
    result.owned_halo_bytes = ofp.halo_bytes;
  }
  result.born_sorted = std::move(born_shared);
  return result;
}

}  // namespace detail

}  // namespace gbpol
