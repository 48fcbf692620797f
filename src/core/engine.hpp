// Unified driver facade: one Engine, one RunOptions aggregate, one RunResult.
//
// The one-per-mode free-function drivers (drivers.hpp) accreted knobs
// across five layers —
// traversal mode on ApproxParams, work division + faults + kill + checkpoint
// on RunConfig, rank/thread counts as positional arguments, and campaign /
// trace destinations as ambient environment variables. Engine consolidates
// all of it:
//
//   gbpol::Engine engine(prep);            // or (prep, params, constants)
//   gbpol::RunOptions opt;
//   opt.ranks = 8;
//   opt.balance = BalancePolicy::kSteal;
//   gbpol::RunResult res = engine.run(opt);
//
// RunResult merges the old free-function driver surface with the per-rank
// RunReport the distributed runtime produces, and serializes to JSON under
// the same versioned-schema policy as metrics.json (schema v2 — serving
// fields added; v1 and any other version are rejected loudly — see
// run_result_from_string).
//
// The PR-5 [[deprecated]] per-mode free functions are REMOVED: Engine plus
// the serving facade gbpol::Service (serve/service.hpp) are the entire
// public API, and scripts/check.sh gates the old symbol names out of the
// tree.
//
// --- Environment-variable defaults (THE documented place) ----------------
// Three env vars act as defaults for RunOptions fields; an explicit field
// always wins, and everything else in the system reads the RESOLVED option,
// never the environment:
//   GBPOL_CAMPAIGN_DIR -> RunOptions::campaign_dir (resumable bench journals;
//                         harness::CampaignConfig journal_path derives from it)
//   GBPOL_TRACE_OUT    -> RunOptions::trace_out (Chrome trace_event export
//                         path for the first traced run of a bench)
//   GBPOL_SIMD         -> RunOptions::simd (near-kernel dispatch request;
//                         grammar documented on simd_set_override in
//                         core/kernels_simd.hpp)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/snapshot.hpp"
#include "core/balance.hpp"
#include "core/drivers.hpp"
#include "mpisim/runtime.hpp"
#include "obs/json.hpp"

namespace gbpol {

enum class EngineMode {
  kAuto,         // ranks > 1 -> distributed; threads > 1 -> cilk; else serial
  kSerial,       // OCT_SERIAL
  kCilk,         // OCT_CILK: the canonical chunk fold at 1 x threads_per_rank
  kDistributed,  // OCT_MPI / OCT_MPI+CILK (honours ranks == 1 too)
};

// Preparation-reuse policy for trajectory workloads (core/incremental.hpp).
// kCold rebuilds every structure and recomputes every cached partial from
// scratch each step with the SAME deterministic recipe the incremental path
// follows, so the two modes are comparable bit-for-bit — the differential
// contract tests/incremental_test.cpp pins. Engine::run itself evaluates the
// Prepared it was handed either way; the knob is consumed by the
// TrajectoryDriver, which owns the between-step state.
enum class ReuseMode { kCold, kIncremental };

// Aggregate options for one Engine::run. Everything the run needs is a
// field here; no positional knobs, no env-var side channels (the two env
// vars above are read ONCE, as defaults, by resolved_*).
struct RunOptions {
  // Topology & routing. route() throws for ranks > 1 on serial/cilk, for
  // threads_per_rank > 1 on serial, and for kAtomBased off distributed.
  EngineMode mode = EngineMode::kAuto;
  int ranks = 1;
  int threads_per_rank = 1;
  mpisim::ClusterModel cluster = mpisim::ClusterModel::lonestar4();
  WorkDivision division = WorkDivision::kNodeNode;

  // Tree traversal for Born + E_pol, read by serial runs only: kRecursive is
  // the paper's per-leaf recursion, the walk's A/B baseline; route() throws
  // for it on every other shape.
  TraversalMode traversal = TraversalMode::kList;

  // Cross-rank balancing (core/balance.hpp). Every distributed kNodeNode
  // run (the paper's OCT_MPI, and OCT_MPI+CILK with threads_per_rank > 1)
  // runs the canonical chunk-fold driver under every policy, kStatic
  // included, so all policies agree to the bit. Policies other than kStatic
  // need that shape; route() throws for kAtomBased. The
  // chunk geometry (balance_chunk_leaves; auto = 8 chunks per worker thread,
  // ranks x threads_per_rank workers) is also the checkpoint and kill
  // granularity, so P x p and (P*p) x 1 runs agree to the bit.
  BalancePolicy balance = BalancePolicy::kStatic;
  std::uint32_t balance_chunk_leaves = 0;  // leaves per chunk; 0 = auto

  // Data residency (core/workdiv.hpp). kOwned runs the canonical chunk-fold
  // driver with owned data: ranks own Morton-contiguous leaf ranges and
  // exchange halos instead of holding the full molecule. Requires a
  // distributed run in the canonical-fold configuration (kNodeNode);
  // route() throws for any other shape.
  DataDistribution distribution = DataDistribution::kReplicated;

  // Fault injection, process kill, stall supervision (mpisim). route()
  // throws for each of them on serial/cilk. An armed kill needs the
  // canonical chunk fold's kill points, and kAtomBased's plain collectives
  // cannot recover from a death or a stall: route() throws for those too.
  mpisim::FaultPlan faults;
  mpisim::KillPlan kill;
  double stall_timeout_seconds = 0.0;

  // Silent-corruption injection + integrity guards (mpisim/faults.hpp,
  // DESIGN.md "Data integrity & silent corruption"). `corruption` schedules
  // deterministic bit flips in message/collective payloads, hot arrays and
  // snapshot bytes; `integrity_guards` (default ON) enables the checksum
  // detection + surgical-recompute recovery. Guards OFF is canary-test only:
  // corrupted bytes then flow through undetected. Distributed runs only:
  // route() throws for a non-empty plan on serial/cilk.
  mpisim::CorruptionPlan corruption;
  bool integrity_guards = true;

  // Checkpoint/restart (ckpt/snapshot.hpp); enabled when checkpoint.dir set.
  // Only the canonical chunk fold checkpoints: route() throws for the shapes
  // that cannot honour a kill.
  ckpt::CheckpointPolicy checkpoint;

  // Trajectory preparation reuse (core/incremental.hpp). Consumed by the
  // TrajectoryDriver per step; ignored by a bare Engine::run.
  ReuseMode reuse = ReuseMode::kIncremental;

  // Observability / campaign destinations. Empty = fall back to the env
  // defaults documented above ("-" = explicitly off, ignore the env).
  std::string trace_out;
  std::string campaign_dir;

  // Near-kernel SIMD dispatch request (absorbs the GBPOL_SIMD side channel).
  // Empty = leave the process dispatch alone (env + CPUID decide); any other
  // value is applied via simd_set_override (core/kernels_simd.hpp) before
  // the run: "off"/"0"/"scalar"/"soa" force the SoA path, "avx2" pins the
  // AVX2 tier (SoA fallback), "on" picks the best tier the CPU supports
  // (AVX-512, else AVX2, else SoA), "auto" clears a previous override.
  // Dispatch is process-global (the kernels resolve one table per process),
  // so a non-empty field re-points every subsequent run too.
  std::string simd;

  // Persistent rank-thread pool (mpisim/pool.hpp) for distributed shapes:
  // non-null runs the rank function on resident worker threads, amortizing
  // thread setup across requests (the serving layer's batching substrate);
  // null spawns per-run threads. Bit-identical either way. Ignored by
  // serial runs. Borrowed — the pool must outlive the run.
  mpisim::PersistentPool* pool = nullptr;
};

// Resolved destination: the explicit field, else the env default, else "".
std::string resolved_trace_out(const RunOptions& options);
std::string resolved_campaign_dir(const RunOptions& options);
// Resolved SIMD request: the explicit field, else the GBPOL_SIMD env value,
// else "" (auto: compiled-in support + CPUID decide).
std::string resolved_simd(const RunOptions& options);

// Factories for the three common shapes. Callers that need more knobs start
// from one of these and set fields (plain assignment avoids GCC's
// -Wmissing-field-initializers on designated initializers).
inline RunOptions serial_options(TraversalMode traversal = TraversalMode::kList) {
  RunOptions options;
  options.mode = EngineMode::kSerial;
  options.traversal = traversal;
  return options;
}

inline RunOptions cilk_options(int threads) {
  RunOptions options;
  options.mode = EngineMode::kCilk;
  options.threads_per_rank = threads;
  return options;
}

inline RunOptions distributed_options(int ranks, int threads_per_rank = 1) {
  RunOptions options;
  options.mode = EngineMode::kDistributed;
  options.ranks = ranks;
  options.threads_per_rank = threads_per_rank;
  return options;
}

// Merged result: the old DriverResult surface plus the per-rank accounting
// the rank runtime reports (empty rank_results for serial runs).
struct RunResult {
  double energy = 0.0;                // kcal/mol
  std::vector<double> born_sorted;    // atoms_tree order

  double compute_seconds = 0.0;       // modeled makespan, compute part
  double comm_seconds = 0.0;          // modeled makespan, communication part
  double wall_seconds = 0.0;          // actual wall clock of the run, from
                                      // driver entry (host planning included)

  std::uint64_t steals = 0;           // intra-rank work-stealing events and
  std::uint64_t tasks = 0;            // pool tasks, summed over hybrid ranks
  std::size_t replicated_bytes = 0;   // modeled memory across all ranks

  // Owned-mode memory accounting (DataDistribution::kOwned runs only): the
  // largest per-rank hot-array footprint under the ownership map + halo
  // plan, and the total halo bytes across ranks (core/halo_exchange.hpp).
  std::size_t owned_bytes_per_rank = 0;
  std::size_t owned_halo_bytes = 0;

  std::uint64_t retries = 0;
  std::uint64_t redistributed_work_items = 0;
  std::uint64_t migrated_chunks = 0;  // cross-rank: chunks computed off-plan
  std::uint64_t steal_grants = 0;     // cross-rank: granted steal requests

  // Incremental-trajectory accounting (core/incremental.hpp): leaf-granular
  // evaluation refreshes this step (Born target leaves refolded + leaves
  // whose change drove E_pol entry recomputes; every leaf on a
  // structural-rebuild or kCold step), interaction-list source leaves
  // re-traversed (vs lists reused wholesale from the previous step), and the
  // fraction of near-field point-pair work whose cached partial was reused.
  // All zero for a bare Engine::run.
  std::uint64_t dirty_leaves = 0;
  std::uint64_t lists_rebuilt = 0;
  double reused_fraction = 0.0;

  // Data-integrity accounting (sums over ranks; see CorruptionPlan).
  std::uint64_t corruption_injected = 0;
  std::uint64_t corruption_detected = 0;
  std::uint64_t corruption_recomputed = 0;
  std::uint64_t corruption_retransmits = 0;

  // Serving accounting (serve/service.hpp; schema v2 fields). Zero/false for
  // a bare Engine::run: cache_hit reports that the Prepared came from the
  // service's byte-budgeted LRU rather than a cold build; queue_seconds is
  // the wall time the request waited between submit and dispatch;
  // serve_seconds the wall time of the dispatch itself (including any cold
  // preparation); batch_id groups requests that shared one persistent-pool
  // dispatch round (0 = unbatched). Reuse accounting for delta-routed
  // requests rides the existing dirty_leaves / lists_rebuilt /
  // reused_fraction fields.
  bool cache_hit = false;
  double queue_seconds = 0.0;
  double serve_seconds = 0.0;
  std::uint64_t batch_id = 0;

  bool degraded = false;
  bool killed = false;
  bool resumed = false;
  int stalls_converted = 0;
  ErrorClass error_class = ErrorClass::kNone;

  int ranks = 1;
  int threads_per_rank = 1;
  std::vector<mpisim::RankResult> rank_results;  // distributed runs only

  double modeled_seconds() const { return compute_seconds + comm_seconds; }
  // Max over ranks of measured compute (+ modeled straggler surplus); falls
  // back to compute_seconds when there is no per-rank detail.
  double max_compute_seconds() const;
  std::uint64_t total_bytes_sent() const;
};

// The driver a RunOptions runs on.
enum class Driver {
  kSerial,       // detail::oct_serial (OCT_SERIAL)
  kAtomBased,    // detail::oct_atom_based (the one-thread kAtomBased
                 // ablation: the paper's static split and reduction)
  kCanonical,    // detail::oct_canonical (OCT_CILK as the 1 x p chunk fold,
                 // OCT_MPI and OCT_MPI+CILK: every balance policy,
                 // replicated or owned)
};

// Engine::run's routing decision, made from the options alone. Resolves
// EngineMode::kAuto, then names the one driver that honours every field.
// A shape no driver honours throws std::invalid_argument naming the
// offending RunOptions field; a run never falls back to another driver.
Driver route(const RunOptions& options);

class Engine {
 public:
  // The Engine borrows `prep` (it must outlive the Engine) and copies the
  // parameter packs.
  explicit Engine(const Prepared& prep, const ApproxParams& params = {},
                  const GBConstants& constants = {})
      : prep_(&prep), params_(params), constants_(constants) {}

  // Runs on route(options)'s driver; throws as route() does.
  RunResult run(const RunOptions& options = {}) const;

 private:
  const Prepared* prep_;
  ApproxParams params_;
  GBConstants constants_;
};

// --- RunResult JSON (versioned schema, policy of obs/export.hpp) ---------
// Schema v2: v1 plus the REQUIRED serving fields (cache_hit, queue_seconds,
// serve_seconds, batch_id). The born array is summarized as a digest
// (count / first / middle / last / mean) — campaign tooling compares
// energies and timings, not per-atom arrays. Pure additions keep the
// version; making fields required (as v2 did) or changing the meaning of an
// existing field bumps it. v1 documents are rejected loudly with a
// version-specific message (see run_result_from_json) rather than parsed
// with guessed defaults.
inline constexpr int kRunResultSchemaVersion = 2;

obs::json::Value run_result_to_json(const RunResult& result,
                                    const std::string& label);

// Parsed summary (everything in the schema except the full born array,
// which the digest stands in for).
struct RunResultDoc {
  std::string label;
  double energy = 0.0;
  int ranks = 1;
  int threads_per_rank = 1;
  double compute_seconds = 0.0;
  double comm_seconds = 0.0;
  double wall_seconds = 0.0;
  std::uint64_t steals = 0;
  std::uint64_t tasks = 0;
  std::uint64_t replicated_bytes = 0;
  std::uint64_t retries = 0;
  std::uint64_t redistributed_work_items = 0;
  std::uint64_t migrated_chunks = 0;
  std::uint64_t steal_grants = 0;
  // Pure v1 additions (owned mode): absent in documents written before
  // owned mode existed, so they parse as zero rather than rejecting.
  std::uint64_t owned_bytes_per_rank = 0;
  std::uint64_t owned_halo_bytes = 0;
  // Pure v1 additions (incremental trajectories): same absent-parses-as-zero
  // policy.
  std::uint64_t dirty_leaves = 0;
  std::uint64_t lists_rebuilt = 0;
  double reused_fraction = 0.0;
  // Pure v1 additions (data-integrity layer): same absent-parses-as-zero
  // policy.
  std::uint64_t corruption_injected = 0;
  std::uint64_t corruption_detected = 0;
  std::uint64_t corruption_recomputed = 0;
  std::uint64_t corruption_retransmits = 0;
  // v2 serving fields: REQUIRED in a v2 document (their introduction is what
  // bumped the version).
  bool cache_hit = false;
  double queue_seconds = 0.0;
  double serve_seconds = 0.0;
  std::uint64_t batch_id = 0;
  bool degraded = false;
  bool killed = false;
  bool resumed = false;
  int stalls_converted = 0;
  std::uint64_t born_count = 0;
  double born_first = 0.0;
  double born_middle = 0.0;
  double born_last = 0.0;
  double born_mean = 0.0;
  std::vector<mpisim::RankResult> rank_results;
};

obs::json::Value run_result_doc_to_json(const RunResultDoc& doc);

struct RunResultParse {
  bool ok = false;
  bool version_mismatch = false;  // loud rejection: wrong schema_version
  int found_version = 0;
  std::string error;
  RunResultDoc doc;
};

RunResultParse run_result_from_json(const obs::json::Value& root);
RunResultParse run_result_from_string(const std::string& text);
bool write_run_result_json(const RunResult& result, const std::string& label,
                           const std::string& path);

// --- implementation entry points (called by Engine; not part of the public
// surface) -----------------------------------------------------------------
namespace detail {
// The one reader of RunOptions::traversal: kList runs the walk, kRecursive
// the per-leaf recursion (the A/B baseline).
RunResult oct_serial(const Prepared& prep, const ApproxParams& params,
                     const GBConstants& constants, TraversalMode traversal);
// The paper's static split and reduction, one thread per rank, for the
// kAtomBased ablation. It has no recovery, so route() refuses deaths and
// stalls on it.
RunResult oct_atom_based(const Prepared& prep, const ApproxParams& params,
                         const GBConstants& constants, const RunOptions& options);
// The canonical chunk-fold driver with cross-rank balancing (DESIGN.md "Load
// balancing") for both data distributions: replicated, or owned ranges plus
// halos (DESIGN.md "Domain decomposition & halo exchange"). One chunk,
// checkpoint, integrity and recovery protocol, so every policy and both
// distributions give bit-identical energies and Born radii. Hybrid ranks
// (threads_per_rank > 1) compute their chunks on a rank-local pool, which
// changes no bit. Requires WorkDivision::kNodeNode (route() enforces it).
RunResult oct_canonical(const Prepared& prep, const ApproxParams& params,
                        const GBConstants& constants, const RunOptions& options);
}  // namespace detail

}  // namespace gbpol
