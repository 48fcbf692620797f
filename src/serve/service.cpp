#include "serve/service.hpp"

#include <bit>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "molecule/io.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "surface/quadrature.hpp"

namespace gbpol {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Streaming FNV-1a over 64-bit words (byte order of ckpt::fnv1a64), so the
// per-atom loops below don't have to materialize an initializer_list.
struct Hasher {
  std::uint64_t h = 14695981039346656037ull;

  void add(std::uint64_t w) {
    for (int i = 0; i < 8; ++i) {
      h ^= (w >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  void add(double d) { add(std::bit_cast<std::uint64_t>(d)); }
  void add(const std::string& s) {
    add(static_cast<std::uint64_t>(s.size()));
    for (const char c : s) add(static_cast<std::uint64_t>(
        static_cast<unsigned char>(c)));
  }
};

// Atom identity (radii + charges) — the part of the molecule a docking scan
// keeps fixed.
void hash_identity(Hasher& h, const Molecule& mol) {
  h.add(static_cast<std::uint64_t>(mol.size()));
  for (const Atom& a : mol.atoms()) {
    h.add(a.radius);
    h.add(a.charge);
  }
}

void hash_positions(Hasher& h, const Molecule& mol) {
  for (const Atom& a : mol.atoms()) {
    h.add(a.pos.x);
    h.add(a.pos.y);
    h.add(a.pos.z);
  }
}

void hash_preparation_params(Hasher& h, const ServeRequest& r) {
  h.add(r.surface.grid_spacing);
  h.add(static_cast<std::uint64_t>(r.surface.dunavant_degree));
  h.add(r.surface.kappa);
  h.add(static_cast<std::uint64_t>(r.params.leaf_capacity));
}

// Version of the evaluation-key recipe below, hashed first. Bump it
// whenever the recipe changes or a route starts producing different bits for
// the same options, so no memo entry or journal stamp written under an older
// recipe can ever match. Format 2: plain one-thread OCT_MPI runs on the
// canonical chunk fold, whose answers differ from the legacy reduction's in
// the last bits, and the run shape lost its chunk-fold opt-in word.
constexpr std::uint64_t kRequestKeyFormat = 2;

void hash_evaluation_params(Hasher& h, const ServeRequest& r,
                            const RunOptions& run) {
  h.add(kRequestKeyFormat);
  h.add(static_cast<std::uint64_t>(r.params.radius_kernel));
  h.add(r.params.eps_born);
  h.add(r.params.eps_epol);
  h.add(static_cast<std::uint64_t>(r.params.approx_math));
  h.add(static_cast<std::uint64_t>(r.params.born_strict_criterion));
  h.add(static_cast<std::uint64_t>(r.params.born_dipole_correction));
  h.add(r.constants.eps_solvent);
  h.add(r.constants.coulomb_kcal);
  // Run shape: anything that can change a bit of the answer or its
  // accounting keys a distinct memo entry.
  h.add(static_cast<std::uint64_t>(run.mode));
  h.add(static_cast<std::uint64_t>(run.ranks));
  h.add(static_cast<std::uint64_t>(run.threads_per_rank));
  h.add(static_cast<std::uint64_t>(run.division));
  h.add(static_cast<std::uint64_t>(run.traversal));
  h.add(static_cast<std::uint64_t>(run.balance));
  h.add(static_cast<std::uint64_t>(run.balance_chunk_leaves));
  h.add(static_cast<std::uint64_t>(run.distribution));
  h.add(static_cast<std::uint64_t>(run.integrity_guards));
  h.add(resolved_simd(run));
}

constexpr char kAutoIdPrefix[] = "req-";

// Fixed-width hex of the request content hash; stamped into the journal
// payload so a replay can prove the stored answer belongs to THIS request.
std::string hex_key(std::uint64_t key) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(key));
  return buf;
}

// "req-<n>" -> n; false for anything else (explicit ids, partial matches).
bool parse_auto_id(const std::string& job, std::uint64_t& sequence) {
  const std::string_view prefix = kAutoIdPrefix;
  if (job.size() <= prefix.size() || job.compare(0, prefix.size(), prefix) != 0)
    return false;
  const char* first = job.data() + prefix.size();
  const char* last = job.data() + job.size();
  const auto [ptr, ec] = std::from_chars(first, last, sequence);
  return ec == std::errc{} && ptr == last;
}

// Rebuilds the scalar surface of a RunResult from its journaled v2 digest
// (born_sorted stays empty — the schema stores a digest, not the array).
RunResult result_from_doc(const RunResultDoc& doc) {
  RunResult r;
  r.energy = doc.energy;
  r.compute_seconds = doc.compute_seconds;
  r.comm_seconds = doc.comm_seconds;
  r.wall_seconds = doc.wall_seconds;
  r.steals = doc.steals;
  r.tasks = doc.tasks;
  r.replicated_bytes = static_cast<std::size_t>(doc.replicated_bytes);
  r.owned_bytes_per_rank = static_cast<std::size_t>(doc.owned_bytes_per_rank);
  r.owned_halo_bytes = static_cast<std::size_t>(doc.owned_halo_bytes);
  r.retries = doc.retries;
  r.redistributed_work_items = doc.redistributed_work_items;
  r.migrated_chunks = doc.migrated_chunks;
  r.steal_grants = doc.steal_grants;
  r.dirty_leaves = doc.dirty_leaves;
  r.lists_rebuilt = doc.lists_rebuilt;
  r.reused_fraction = doc.reused_fraction;
  r.corruption_injected = doc.corruption_injected;
  r.corruption_detected = doc.corruption_detected;
  r.corruption_recomputed = doc.corruption_recomputed;
  r.corruption_retransmits = doc.corruption_retransmits;
  r.cache_hit = doc.cache_hit;
  r.queue_seconds = doc.queue_seconds;
  r.serve_seconds = doc.serve_seconds;
  r.batch_id = doc.batch_id;
  r.degraded = doc.degraded;
  r.killed = doc.killed;
  r.resumed = doc.resumed;
  r.stalls_converted = doc.stalls_converted;
  r.ranks = doc.ranks;
  r.threads_per_rank = doc.threads_per_rank;
  r.rank_results = doc.rank_results;
  return r;
}

}  // namespace

const char* serve_path_name(ServePath path) {
  switch (path) {
    case ServePath::kCold: return "cold";
    case ServePath::kCached: return "cached";
    case ServePath::kMemoized: return "memoized";
    case ServePath::kReplayed: return "replayed";
    case ServePath::kDelta: return "delta";
  }
  return "unknown";
}

std::string resolved_service_campaign_dir(const ServiceOptions& options) {
  if (options.campaign_dir == "-") return "";
  if (!options.campaign_dir.empty()) return options.campaign_dir;
  if (const char* env = std::getenv("GBPOL_CAMPAIGN_DIR")) return env;
  return "";
}

int resolved_soak_requests(const ServiceOptions& options, int quick_scale,
                           int soak_scale) {
  if (options.soak_requests > 0) return options.soak_requests;
  if (const char* env = std::getenv("GBPOL_SOAK_TESTS")) {
    const std::string v = env;
    if (!v.empty() && v != "0" && v != "OFF" && v != "off") return soak_scale;
  }
  return quick_scale;
}

Service::Service(ServiceOptions options)
    : options_(std::move(options)), driver_(route(options_.run)) {
  // Delta-routed poses are TrajectoryDriver steps, which walk kList only.
  if (options_.delta_routing && options_.run.traversal != TraversalMode::kList)
    throw std::invalid_argument(
        "RunOptions::traversal: delta routing evaluates kList; kRecursive needs "
        "delta_routing = false");
  // The service owns its pool and its journal/trace destinations; a
  // caller-set pool or an engine-level campaign dir / trace file would
  // double-route every request. "-" is the explicit-off switch, so the
  // GBPOL_CAMPAIGN_DIR / GBPOL_TRACE_OUT env defaults cannot leak in either.
  options_.run.pool = nullptr;
  options_.run.campaign_dir = "-";
  options_.run.trace_out = "-";

  campaign_dir_ = resolved_service_campaign_dir(options_);
  if (!campaign_dir_.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(campaign_dir_, ec);
    harness::CampaignConfig config;
    config.journal_path = campaign_dir_ + "/service.journal";
    campaign_ = std::make_unique<harness::Campaign>(config);
    // Resume auto-id numbering past every "req-<n>" the journal has seen, so
    // a restarted incarnation cannot reissue a dead incarnation's auto id
    // (and then mistake its journaled answer for this request's).
    for (const ckpt::JournalRecord& rec : campaign_->journal().records()) {
      std::uint64_t seen = 0;
      if (parse_auto_id(rec.job, seen) && seen >= next_sequence_)
        next_sequence_ = seen + 1;
    }
  }
  if ((driver_ == Driver::kAtomBased || driver_ == Driver::kCanonical) &&
      options_.run.ranks >= 1)
    pool_ = std::make_unique<mpisim::PersistentPool>(options_.run.ranks);
}

Service::~Service() = default;

std::string Service::submit(ServeRequest request) {
  std::lock_guard<std::mutex> lock(mutex_);
  Pending pending;
  pending.sequence = next_sequence_++;
  pending.job_id = request.id.empty()
                       ? kAutoIdPrefix + std::to_string(pending.sequence)
                       : request.id;
  pending.request = std::move(request);
  pending.accepted_at = Clock::now();
  ++stats_.accepted;
  obs::emit(obs::EventKind::kRequestAccept, pending.sequence);
  obs::add_request_accepted();
  if (campaign_ != nullptr) campaign_->record_queued(pending.job_id);
  std::string job_id = pending.job_id;
  queue_.push_back(std::move(pending));
  return job_id;
}

std::vector<ServeResult> Service::drain(std::size_t max_requests) {
  std::lock_guard<std::mutex> serving(serve_mutex_);
  return drain_locked(max_requests);
}

std::vector<ServeResult> Service::drain_locked(std::size_t max_requests) {
  std::vector<ServeResult> results;
  std::uint64_t batch_id = 0;
  while (results.size() < max_requests) {
    Pending pending;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (queue_.empty()) break;
      pending = std::move(queue_.front());
      queue_.pop_front();
      // One batch per drain: every pooled dispatch in this call shares the
      // id, so "requests that rode one persistent-pool round" is queryable.
      if (pool_ != nullptr && batch_id == 0) {
        batch_id = ++next_batch_;
        ++stats_.batches;
        obs::add_batch_dispatched();
      }
    }
    results.push_back(serve_one(std::move(pending), batch_id));
  }
  return results;
}

ServeResult Service::serve(ServeRequest request) {
  // Take the serving lock BEFORE submitting: any concurrent drain is then
  // either already past the queue (our request not yet visible) or waiting
  // behind us, so our own drain below is guaranteed to serve our job.
  std::lock_guard<std::mutex> serving(serve_mutex_);
  const std::string job_id = submit(std::move(request));
  std::vector<ServeResult> results = drain_locked(SIZE_MAX);
  for (ServeResult& r : results)
    if (r.job_id == job_id) return std::move(r);
  // Unreachable while the invariant above holds; fail loudly rather than
  // hand back another tenant's answer.
  throw IoError("service request '" + job_id +
                "' was not served by its own drain");
}

std::size_t Service::queued() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

ServiceStats Service::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t Service::cache_entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cache_.size();
}

std::size_t Service::cache_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cache_bytes_;
}

std::shared_ptr<const Prepared> Service::cache_lookup(std::uint64_t prep_key) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = cache_index_.find(prep_key);
  if (it == cache_index_.end()) {
    obs::emit(obs::EventKind::kCacheMiss, prep_key);
    obs::add_cache_miss();
    ++stats_.cache_misses;
    ++stats_.cold;
    return nullptr;
  }
  cache_.splice(cache_.begin(), cache_, it->second);  // refresh LRU position
  obs::emit(obs::EventKind::kCacheHit, prep_key,
            static_cast<std::uint64_t>(cache_.front().bytes));
  obs::add_cache_hit();
  ++stats_.cache_hits;
  return cache_.front().prep;
}

std::shared_ptr<const Prepared> Service::cache_insert(std::uint64_t prep_key,
                                                      Prepared prep) {
  CacheEntry entry;
  entry.key = prep_key;
  entry.bytes = prep.replicated_footprint().bytes;
  entry.prep = std::make_shared<const Prepared>(std::move(prep));
  std::lock_guard<std::mutex> lock(mutex_);
  cache_.push_front(std::move(entry));
  cache_index_[prep_key] = cache_.begin();
  cache_bytes_ += cache_.front().bytes;
  // Evict LRU-first down to the byte budget, but never the entry just
  // inserted: one oversized molecule must still serve.
  while (cache_bytes_ > options_.cache_budget_bytes && cache_.size() > 1) {
    const CacheEntry& victim = cache_.back();
    obs::emit(obs::EventKind::kCacheEvict, victim.key,
              static_cast<std::uint64_t>(victim.bytes));
    obs::add_cache_eviction(victim.bytes);
    ++stats_.cache_evictions;
    stats_.cache_evicted_bytes += victim.bytes;
    cache_bytes_ -= victim.bytes;
    cache_index_.erase(victim.key);
    cache_.pop_back();
  }
  return cache_.front().prep;
}

RunResult Service::compute(const Pending& pending, std::uint64_t full_key,
                           std::uint64_t family_key, std::uint64_t prep_key,
                           ServePath& path, std::uint64_t batch_id) {
  const ServeRequest& req = pending.request;

  // Path 1: exact repeat — replay the stored answer.
  if (options_.memoize_results) {
    const auto memo = memo_.find(full_key);
    if (memo != memo_.end()) {
      path = ServePath::kMemoized;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.memo_hits;
      }
      RunResult result = memo->second;
      result.cache_hit = true;
      result.batch_id = 0;  // no dispatch happened
      return result;
    }
  }

  // Path 3: same family, new geometry -> incremental delta update (serial
  // shapes only; the evaluation caches are serial, and the distributed
  // delta-maintained Prepared would break the 0-ulp cold-twin story).
  const auto family = families_.find(family_key);
  if (options_.delta_routing && driver_ == Driver::kSerial &&
      family != families_.end()) {
    Family& fam = family->second;
    if (fam.driver == nullptr) {
      TrajectoryOptions topt;
      topt.skin = options_.delta_skin;
      topt.surface = req.surface;
      fam.driver = std::make_unique<TrajectoryDriver>(
          fam.first_mol, topt, req.params, req.constants);
    }
    std::vector<Vec3> positions;
    positions.reserve(req.mol.size());
    for (const Atom& a : req.mol.atoms()) positions.push_back(a.pos);
    RunOptions run = options_.run;
    RunResult result = fam.driver->step(positions, run);
    path = ServePath::kDelta;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.delta_routed;
    }
    if (options_.memoize_results) memo_[full_key] = result;
    return result;
  }

  // Path 2: Prepared-cache hit or cold miss + insert (hit/miss accounting
  // happens inside cache_lookup, under the cache lock).
  std::shared_ptr<const Prepared> prep = cache_lookup(prep_key);
  const bool hit = prep != nullptr;
  if (!hit) {
    const surface::SurfaceQuadrature quad =
        surface::molecular_surface_quadrature(req.mol, req.surface);
    prep = cache_insert(
        prep_key, Prepared::build(req.mol, quad, req.params.leaf_capacity));
  }

  RunOptions run = options_.run;
  run.pool = pool_.get();
  const Engine engine(*prep, req.params, req.constants);
  RunResult result = engine.run(run);
  result.cache_hit = hit;
  result.batch_id = pool_ != nullptr ? batch_id : 0;
  path = hit ? ServePath::kCached : ServePath::kCold;

  // Register the family after its first cold serve so the NEXT moved
  // geometry can delta-route, and memoize the exact answer.
  families_.try_emplace(family_key, Family{req.mol, nullptr});
  if (options_.memoize_results) memo_[full_key] = result;
  return result;
}

ServeResult Service::serve_one(Pending pending, std::uint64_t batch_id) {
  const Clock::time_point dispatched_at = Clock::now();
  const double queue_seconds =
      seconds_between(pending.accepted_at, dispatched_at);
  obs::emit(obs::EventKind::kRequestDispatch, pending.sequence, batch_id);

  Hasher identity;
  hash_identity(identity, pending.request.mol);
  hash_preparation_params(identity, pending.request);

  Hasher prep_hash = identity;
  hash_positions(prep_hash, pending.request.mol);
  const std::uint64_t prep_key = prep_hash.h;

  Hasher family_hash = identity;
  hash_evaluation_params(family_hash, pending.request, options_.run);
  const std::uint64_t family_key = family_hash.h;

  Hasher full_hash = family_hash;
  hash_positions(full_hash, pending.request.mol);
  const std::uint64_t full_key = full_hash.h;

  ServeResult out;
  out.job_id = pending.job_id;

  ServePath path = ServePath::kCold;
  RunResult result;
  bool computed = false;
  const auto compute_and_stamp = [&]() {
    result = compute(pending, full_key, family_key, prep_key, path, batch_id);
    result.queue_seconds = queue_seconds;
    result.serve_seconds = seconds_between(dispatched_at, Clock::now());
    computed = true;
  };

  if (campaign_ != nullptr) {
    const harness::JobStatus& status =
        campaign_->run(pending.job_id, [&]() -> std::string {
          compute_and_stamp();
          // Stamp the payload with the request content hash so a later
          // incarnation can verify a replay candidate really answers THIS
          // request. The extra field is outside the v2 run-result schema
          // and ignored by its parser.
          obs::json::Value doc = run_result_to_json(result, pending.job_id);
          doc.as_object().emplace_back("request_key",
                                       obs::json::Value(hex_key(full_key)));
          return doc.dump();
        });
    if (!computed && status.state == ckpt::JobState::kDone) {
      // Journal replay from a previous incarnation (or a duplicate id).
      // Only honour the stored answer if its request_key matches this
      // request; a same-id job with different content must recompute.
      const obs::json::ParseResult payload = obs::json::parse(status.payload);
      const obs::json::Value* stored_key =
          payload.ok ? payload.value.find("request_key") : nullptr;
      const bool key_mismatch = stored_key != nullptr &&
                                stored_key->is_string() &&
                                stored_key->as_string() != hex_key(full_key);
      const RunResultParse parsed =
          payload.ok && !key_mismatch ? run_result_from_json(payload.value)
                                      : RunResultParse{};
      if (parsed.ok) {
        result = result_from_doc(parsed.doc);
        path = ServePath::kReplayed;
        out.from_journal = true;
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.replayed;
      } else if (key_mismatch) {
        // The journaled answer belongs to a different request that used the
        // same id. Serve this one fresh; the journal keeps the old record.
        {
          std::lock_guard<std::mutex> lock(mutex_);
          ++stats_.replay_rejected;
        }
        compute_and_stamp();
      } else {
        // Unreadable payload (e.g. a journal written by an older schema):
        // recompute rather than serve garbage; the journal keeps the old
        // done record, so this stays a one-off.
        compute_and_stamp();
      }
    } else if (!computed) {
      // Quarantined job: surface the failure loudly instead of a zero
      // energy pretending to be an answer.
      throw IoError("service job '" + pending.job_id +
                    "' is quarantined: " + status.payload);
    }
  } else {
    compute_and_stamp();
  }

  out.path = path;
  out.result = std::move(result);
  obs::emit(obs::EventKind::kRequestDone, pending.sequence,
            static_cast<std::uint64_t>(path));
  obs::add_request_served();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.served;
  }
  return out;
}

}  // namespace gbpol
