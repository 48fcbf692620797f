// Multi-tenant GB polarization-energy service.
//
// gbpol::Service is the serving facade over the Engine: many tenants submit
// molecule requests; the service queues them deterministically, reuses
// preparation state across requests, and answers each one with a ServeResult
// whose embedded RunResult carries the serving accounting (schema v2 fields
// of core/engine.hpp). Four ingredients:
//
//  * JOB QUEUE FRONT END. submit() is thread-safe and assigns each request a
//    monotone sequence number under the queue lock; drain() serves strictly
//    in acceptance order. "Deterministic" therefore means: the serve order
//    IS the accept order, and every request's answer depends only on the
//    accepted sequence before it — never on thread timing after acceptance.
//    Serving itself is serialized: drain()/serve() calls take a dedicated
//    serving lock, so at most one thread drives the compute paths (and the
//    persistent pool, which requires one caller) at a time, while submit()
//    and the accessors stay callable concurrently.
//  * PREPARED-STATE CACHE. Prepared::build is a deterministic pure function
//    of (molecule bits, quadrature params, leaf capacity) — the same key this
//    cache hashes (ckpt::fnv1a64 over the raw IEEE-754 bits). A hit runs the
//    Engine over the cached Prepared, which is therefore bit-identical to a
//    cold build; entries are charged their replicated_footprint() bytes and
//    evicted LRU-first once the byte budget is exceeded.
//  * DELTA ROUTING. Requests that re-evaluate a known FAMILY (same atom
//    count, charges, radii, params — only positions moved: a docking scan)
//    are routed through core/incremental's TrajectoryDriver instead of a
//    cold prepare, when the service's run shape is serial. The driver is
//    anchored at the family's first-seen geometry and each delta request is
//    one step() in acceptance order.
//  * BATCHED DISPATCH. When the service run shape is distributed, a
//    mpisim::PersistentPool is created once and every request's ranks run on
//    the resident worker threads; requests dispatched within one drain()
//    share a batch_id, so rank setup is paid per pool, not per request.
//
// Determinism contract (three paths, pinned by tests/serve_test.cpp and the
// bench/fig_serving self-gate):
//   1. exact hit (memo or journal replay) — the stored answer of a previous
//      serve, bit-identical to that serve by construction;
//   2. cold miss / cached-Prepared hit — an Engine::run over a Prepared that
//      is bit-identical to a fresh build, hence 0 ulp vs the direct cold run
//      of the same request;
//   3. delta route — 0 ulp vs a mirror ReuseMode::kCold TrajectoryDriver fed
//      the same step sequence (the core/incremental differential contract),
//      which is itself 0 ulp vs a direct Engine::run over the driver's
//      Prepared (the anchored geometry, not a fresh build of the pose).
// ServiceOptions::delta_routing = false disables path 3, making EVERY served
// energy 0 ulp against a direct cold Engine::run.
//
// Durability: with a campaign directory resolved (explicit field or
// GBPOL_CAMPAIGN_DIR), accepted/running/done transitions are journaled
// through harness::Campaign at <dir>/service.journal. A service restarted on
// the same journal replays done jobs (payload = the v2 run-result JSON plus
// a "request_key" stamp, the request's content hash) without recomputation
// and re-serves jobs that were accepted but not done. Two guards keep a
// replay from serving a DIFFERENT request's stored answer: auto-assigned
// "req-<n>" ids resume numbering after the journal's highest seen n (so a
// restarted service never reissues a dead incarnation's auto id), and every
// replay candidate's request_key is checked against the incoming request —
// on mismatch the answer is recomputed instead of replayed.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/incremental.hpp"
#include "harness/campaign.hpp"
#include "mpisim/pool.hpp"

namespace gbpol {

// One tenant request: the molecule plus the evaluation parameters that are
// legitimately per-request. The run SHAPE (ranks/threads/mode/balancing) is
// service-level policy — tenants ask for an energy, not a topology.
struct ServeRequest {
  // Stable job id for the durable queue; empty = auto-assigned
  // "req-<sequence>" (numbering resumes past the journal's highest seen
  // sequence on restart). Two requests with the same id AND the same content
  // hash are the same job: once one is done (this run or a previous
  // incarnation via the journal), the other replays its stored answer. A
  // same-id request with DIFFERENT content is computed fresh — the journal
  // payload's request_key stamp is validated before any replay.
  std::string id;
  Molecule mol;
  ApproxParams params;
  GBConstants constants;
  surface::QuadratureParams surface;
};

// Which of the documented serving paths produced the answer.
enum class ServePath {
  kCold,      // cache miss: fresh surface + Prepared build + Engine::run
  kCached,    // Prepared-cache hit: Engine::run over the cached preparation
  kMemoized,  // exact repeat: stored RunResult of a previous serve
  kReplayed,  // journal replay from a previous process incarnation
  kDelta,     // TrajectoryDriver delta update (same family, moved positions)
};
const char* serve_path_name(ServePath path);

struct ServeResult {
  std::string job_id;
  ServePath path = ServePath::kCold;
  // Replayed results are rebuilt from the journaled v2 JSON digest: the
  // scalar surface (energy, timings, counters) is exact, born_sorted is
  // empty (the schema stores the digest, not the array).
  bool from_journal = false;
  RunResult result;  // serving fields (cache_hit/queue/serve/batch) filled in
};

struct ServiceOptions {
  // Run shape + evaluation routing for every request (mode, ranks, threads,
  // balancing, traversal, simd, ...). ranks > 1 / kDistributed creates the
  // persistent pool; RunOptions::pool is owned by the service and must stay
  // null here. trace_out / campaign_dir on THIS RunOptions are ignored (the
  // constructor pins both to "-", the explicit-off switch, so not even the
  // env defaults leak in) — the service-level fields below are the
  // destinations.
  RunOptions run;

  // Prepared-cache byte budget (replicated_footprint bytes per entry). The
  // most-recently-used entry is never evicted, so one oversized molecule
  // still serves (the budget then only bounds the rest).
  std::size_t cache_budget_bytes = std::size_t{256} << 20;

  // Store full RunResults for exact request repeats (path kMemoized).
  bool memoize_results = true;

  // Route same-family moved-geometry requests through the incremental
  // TrajectoryDriver (serial run shapes only; see the header contract).
  bool delta_routing = true;
  // Skin margin handed to TrajectoryOptions for delta-routed families.
  double delta_skin = 0.3;

  // Durable-queue journal directory. Empty = GBPOL_CAMPAIGN_DIR env default,
  // "-" = explicitly off (PR-5 explicit-wins convention). The journal file
  // is <resolved dir>/service.journal.
  std::string campaign_dir;

  // Soak-scale request count for the stress suites (absorbs the
  // GBPOL_SOAK_TESTS side channel): > 0 wins outright; 0 falls back to the
  // env var (any value but "0"/"OFF"/"" = soak scale), else the quick scale.
  int soak_requests = 0;
};

// Explicit-wins resolution (the documented absorption points).
std::string resolved_service_campaign_dir(const ServiceOptions& options);
int resolved_soak_requests(const ServiceOptions& options, int quick_scale,
                           int soak_scale);

struct ServiceStats {
  std::uint64_t accepted = 0;
  std::uint64_t served = 0;
  std::uint64_t cold = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_evicted_bytes = 0;
  std::uint64_t memo_hits = 0;
  std::uint64_t delta_routed = 0;
  std::uint64_t replayed = 0;
  // Journal replays refused because the stored payload's request_key did not
  // match the incoming request (same job id, different content) — the answer
  // was recomputed instead.
  std::uint64_t replay_rejected = 0;
  std::uint64_t batches = 0;
};

class Service {
 public:
  // Throws std::invalid_argument (naming the field, as Engine's route()
  // does) when options.run is a shape no driver runs, or a kRecursive shape
  // with delta_routing on, so a misconfigured service fails at construction
  // instead of on every request.
  explicit Service(ServiceOptions options = {});
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  // Accepts a request into the queue (thread-safe) and returns its job id.
  // Journals the acceptance when the durable queue is on.
  std::string submit(ServeRequest request);

  // Serves up to max_requests queued requests in acceptance order on the
  // calling thread, returning one ServeResult per served request. A partial
  // drain (max_requests < queue depth) leaves the rest queued — and, with
  // the journal on, re-servable by a restarted service. Concurrent drains
  // are serialized on the serving lock: each queued request is served by
  // exactly one drain, and its result goes to that caller only.
  std::vector<ServeResult> drain(std::size_t max_requests = SIZE_MAX);

  // Convenience: submit + drain everything pending; returns THIS request's
  // result (located by job id in the drained batch — never another
  // tenant's). Earlier pending requests are served too, in acceptance
  // order; their ServeResults are dropped here, but their answers stay
  // memoized/journaled, so their owners can recover them by re-submitting
  // the same id. Throws if the result cannot be produced.
  ServeResult serve(ServeRequest request);

  std::size_t queued() const;
  ServiceStats stats() const;
  std::size_t cache_entries() const;
  std::size_t cache_bytes() const;
  // Non-null once a distributed run shape forced pool creation.
  const mpisim::PersistentPool* pool() const { return pool_.get(); }
  const ServiceOptions& options() const { return options_; }

 private:
  struct Pending {
    std::string job_id;
    std::uint64_t sequence = 0;
    ServeRequest request;
    std::chrono::steady_clock::time_point accepted_at;
  };
  struct CacheEntry {
    std::uint64_t key = 0;
    std::size_t bytes = 0;
    std::shared_ptr<const Prepared> prep;
  };
  struct Family {
    Molecule first_mol;  // anchor geometry for a lazily-created driver
    std::unique_ptr<TrajectoryDriver> driver;
  };

  std::vector<ServeResult> drain_locked(std::size_t max_requests);
  ServeResult serve_one(Pending pending, std::uint64_t batch_id);
  RunResult compute(const Pending& pending, std::uint64_t full_key,
                    std::uint64_t family_key, std::uint64_t prep_key,
                    ServePath& path, std::uint64_t batch_id);
  std::shared_ptr<const Prepared> cache_lookup(std::uint64_t prep_key);
  std::shared_ptr<const Prepared> cache_insert(std::uint64_t prep_key,
                                               Prepared prep);

  ServiceOptions options_;
  Driver driver_;  // route(options_.run), decided once
  std::string campaign_dir_;

  // Serializes the serving side: drain()/serve() hold it end to end, so the
  // compute paths (memo_, families_, campaign_, pool_) run on one thread at
  // a time.
  std::mutex serve_mutex_;
  // Guards the state shared between the serving thread and the concurrent
  // public surface: queue_, next_sequence_, stats_, and the Prepared cache
  // (cache_/cache_index_/cache_bytes_) that cache_entries()/cache_bytes()
  // read.
  mutable std::mutex mutex_;
  std::deque<Pending> queue_;
  std::uint64_t next_sequence_ = 0;
  std::uint64_t next_batch_ = 0;
  ServiceStats stats_;

  // LRU Prepared cache: front = most recent. Entries are shared_ptr so an
  // Engine::run over an entry evicted mid-flight (impossible today, cheap
  // insurance tomorrow) keeps its preparation alive.
  std::list<CacheEntry> cache_;
  std::map<std::uint64_t, std::list<CacheEntry>::iterator> cache_index_;
  std::size_t cache_bytes_ = 0;

  // Serving-thread-only state (guarded by serve_mutex_, not mutex_: no
  // public accessor reads these).
  std::map<std::uint64_t, RunResult> memo_;
  std::map<std::uint64_t, Family> families_;

  std::unique_ptr<harness::Campaign> campaign_;
  std::unique_ptr<mpisim::PersistentPool> pool_;
};

}  // namespace gbpol
