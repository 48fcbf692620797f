#include "core/engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "core/kernels_simd.hpp"

namespace gbpol {
namespace {

// Shared env-default rule: explicit field wins, "-" is an explicit off
// switch (ignore the environment), empty falls back to the variable.
std::string resolved(const std::string& field, const char* env_var) {
  if (field == "-") return {};
  if (!field.empty()) return field;
  const char* env = std::getenv(env_var);
  return env != nullptr ? std::string(env) : std::string();
}

}  // namespace

std::string resolved_trace_out(const RunOptions& options) {
  return resolved(options.trace_out, "GBPOL_TRACE_OUT");
}

std::string resolved_campaign_dir(const RunOptions& options) {
  return resolved(options.campaign_dir, "GBPOL_CAMPAIGN_DIR");
}

std::string resolved_simd(const RunOptions& options) {
  if (!options.simd.empty()) return options.simd;
  const char* env = std::getenv("GBPOL_SIMD");
  return env != nullptr ? std::string(env) : std::string();
}

double RunResult::max_compute_seconds() const {
  if (rank_results.empty()) return compute_seconds;
  double best = 0.0;
  for (const mpisim::RankResult& r : rank_results)
    best = std::max(best, r.compute_seconds + r.straggler_seconds);
  return best;
}

std::uint64_t RunResult::total_bytes_sent() const {
  std::uint64_t total = 0;
  for (const mpisim::RankResult& r : rank_results) total += r.bytes_sent;
  return total;
}

Driver route(const RunOptions& options) {
  const auto reject = [](const char* field, const char* why) {
    throw std::invalid_argument(std::string("RunOptions::") + field + ": " + why);
  };
  EngineMode mode = options.mode;
  if (mode == EngineMode::kAuto) {
    if (options.ranks > 1)
      mode = EngineMode::kDistributed;
    else if (options.threads_per_rank > 1)
      mode = EngineMode::kCilk;
    else
      mode = EngineMode::kSerial;
  }
  if (mode != EngineMode::kSerial && options.traversal != TraversalMode::kList)
    reject("traversal", "kRecursive is the serial A/B baseline; other shapes walk kList");
  const bool owned = options.distribution == DataDistribution::kOwned;
  const bool balanced = options.balance != BalancePolicy::kStatic;

  // Shared-memory modes have one rank, so nothing to distribute, balance,
  // fault, kill, supervise or checkpoint. OCT_CILK is that one rank's pool
  // running the canonical chunk fold: 1 x p, bit-identical to p x 1.
  if (mode != EngineMode::kDistributed) {
    if (options.ranks > 1) reject("ranks", "more than one rank needs a distributed run");
    if (mode == EngineMode::kSerial && options.threads_per_rank > 1)
      reject("threads_per_rank", "a serial run has one thread; kCilk runs more");
    if (options.division == WorkDivision::kAtomBased)
      reject("division", "kAtomBased needs a distributed run");
    if (owned) reject("distribution", "kOwned needs a distributed run");
    if (balanced) reject("balance", "cross-rank balancing needs a distributed run");
    if (!options.faults.empty()) reject("faults", "fault injection needs a distributed run");
    if (!options.corruption.empty())
      reject("corruption", "corruption injection needs a distributed run");
    if (options.kill.armed) reject("kill", "a process kill needs a distributed run");
    if (options.stall_timeout_seconds > 0.0)
      reject("stall_timeout_seconds", "stall supervision needs a distributed run");
    if (options.checkpoint.enabled())
      reject("checkpoint.dir", "checkpointing needs a distributed run");
    return mode == EngineMode::kSerial ? Driver::kSerial : Driver::kCanonical;
  }

  // Every kNodeNode shape — OCT_MPI and OCT_MPI+CILK alike — runs the
  // canonical chunk fold (hybrid ranks run their chunks on a rank-local
  // pool); owned halos are planned from interaction lists.
  if (options.division == WorkDivision::kNodeNode) return Driver::kCanonical;

  // The kAtomBased ablation runs the paper's one-thread static reduction,
  // which has no chunks to balance, own, kill at or checkpoint. Its plain
  // collectives mask delays, drops and stragglers but have no recovery from
  // a death (a converted stall is one).
  if (options.threads_per_rank > 1)
    reject("threads_per_rank", "kAtomBased runs one thread per rank");
  if (owned || balanced)
    reject("division", "the canonical chunk fold (balance, kOwned) needs kNodeNode");
  if (options.faults.has_deaths() || options.faults.has_stalls())
    reject("faults", "kAtomBased cannot recover from a death or a stall");
  if (options.kill.armed) reject("kill", "kAtomBased has no kill points");
  if (options.checkpoint.enabled()) reject("checkpoint.dir", "kAtomBased cannot checkpoint");
  return Driver::kAtomBased;
}

RunResult Engine::run(const RunOptions& options) const {
  const Driver driver = route(options);

  // Explicit SIMD request wins over the GBPOL_SIMD env default; an empty
  // field leaves the process-wide dispatch untouched (kernels_simd.hpp).
  if (!options.simd.empty()) simd_set_override(options.simd);

  switch (driver) {
    case Driver::kSerial:
      return detail::oct_serial(*prep_, params_, constants_, options.traversal);
    case Driver::kCanonical:
      return detail::oct_canonical(*prep_, params_, constants_, options);
    case Driver::kAtomBased:
      break;
  }
  return detail::oct_atom_based(*prep_, params_, constants_, options);
}

// --- RunResult JSON ------------------------------------------------------

namespace {

RunResultDoc doc_from_result(const RunResult& result, const std::string& label) {
  RunResultDoc doc;
  doc.label = label;
  doc.energy = result.energy;
  doc.ranks = result.ranks;
  doc.threads_per_rank = result.threads_per_rank;
  doc.compute_seconds = result.compute_seconds;
  doc.comm_seconds = result.comm_seconds;
  doc.wall_seconds = result.wall_seconds;
  doc.steals = result.steals;
  doc.tasks = result.tasks;
  doc.replicated_bytes = static_cast<std::uint64_t>(result.replicated_bytes);
  doc.retries = result.retries;
  doc.redistributed_work_items = result.redistributed_work_items;
  doc.migrated_chunks = result.migrated_chunks;
  doc.steal_grants = result.steal_grants;
  doc.owned_bytes_per_rank = static_cast<std::uint64_t>(result.owned_bytes_per_rank);
  doc.owned_halo_bytes = static_cast<std::uint64_t>(result.owned_halo_bytes);
  doc.dirty_leaves = result.dirty_leaves;
  doc.lists_rebuilt = result.lists_rebuilt;
  doc.reused_fraction = result.reused_fraction;
  doc.corruption_injected = result.corruption_injected;
  doc.corruption_detected = result.corruption_detected;
  doc.corruption_recomputed = result.corruption_recomputed;
  doc.corruption_retransmits = result.corruption_retransmits;
  doc.cache_hit = result.cache_hit;
  doc.queue_seconds = result.queue_seconds;
  doc.serve_seconds = result.serve_seconds;
  doc.batch_id = result.batch_id;
  doc.degraded = result.degraded;
  doc.killed = result.killed;
  doc.resumed = result.resumed;
  doc.stalls_converted = result.stalls_converted;
  const std::vector<double>& born = result.born_sorted;
  doc.born_count = born.size();
  if (!born.empty()) {
    doc.born_first = born.front();
    doc.born_middle = born[born.size() / 2];
    doc.born_last = born.back();
    double sum = 0.0;
    for (const double b : born) sum += b;
    doc.born_mean = sum / static_cast<double>(born.size());
  }
  doc.rank_results = result.rank_results;
  return doc;
}

bool read_number(const obs::json::Value& v, const char* key, double& out,
                 std::string& err) {
  const obs::json::Value* f = v.find(key);
  if (f == nullptr || !f->is_number()) {
    err = std::string("missing or non-numeric field: ") + key;
    return false;
  }
  out = f->as_number();
  return true;
}

bool read_u64(const obs::json::Value& v, const char* key, std::uint64_t& out,
              std::string& err) {
  double d = 0.0;
  if (!read_number(v, key, d, err)) return false;
  if (d < 0.0) {
    err = std::string("negative count field: ") + key;
    return false;
  }
  out = static_cast<std::uint64_t>(d);
  return true;
}

bool read_int(const obs::json::Value& v, const char* key, int& out,
              std::string& err) {
  double d = 0.0;
  if (!read_number(v, key, d, err)) return false;
  out = static_cast<int>(d);
  return true;
}

bool read_bool(const obs::json::Value& v, const char* key, bool& out,
               std::string& err) {
  const obs::json::Value* f = v.find(key);
  if (f == nullptr || !f->is_bool()) {
    err = std::string("missing or non-boolean field: ") + key;
    return false;
  }
  out = f->as_bool();
  return true;
}

}  // namespace

obs::json::Value run_result_doc_to_json(const RunResultDoc& doc) {
  using obs::json::Array;
  using obs::json::Object;
  using obs::json::Value;

  // Satellite guard: JSON cannot represent NaN/Inf, so a non-finite double
  // here would serialize as null. Name the offending fields loudly at the
  // root; the parser rejects a flagged document outright.
  std::vector<std::string> non_finite;
  const auto check = [&non_finite](double d, const char* name) {
    if (!std::isfinite(d)) non_finite.emplace_back(name);
  };
  check(doc.energy, "energy");
  check(doc.compute_seconds, "compute_seconds");
  check(doc.comm_seconds, "comm_seconds");
  check(doc.wall_seconds, "wall_seconds");
  check(doc.queue_seconds, "queue_seconds");
  check(doc.serve_seconds, "serve_seconds");
  check(doc.born_first, "born.first");
  check(doc.born_middle, "born.middle");
  check(doc.born_last, "born.last");
  check(doc.born_mean, "born.mean");
  for (const mpisim::RankResult& r : doc.rank_results) {
    if (!std::isfinite(r.compute_seconds) ||
        !std::isfinite(r.straggler_seconds) || !std::isfinite(r.comm_seconds)) {
      non_finite.emplace_back("rank_results");
      break;
    }
  }

  Object born;
  born.emplace_back("count", Value(doc.born_count));
  born.emplace_back("first", Value(doc.born_first));
  born.emplace_back("middle", Value(doc.born_middle));
  born.emplace_back("last", Value(doc.born_last));
  born.emplace_back("mean", Value(doc.born_mean));

  Array ranks;
  for (const mpisim::RankResult& r : doc.rank_results) {
    Object o;
    o.emplace_back("compute_seconds", Value(r.compute_seconds));
    o.emplace_back("straggler_seconds", Value(r.straggler_seconds));
    o.emplace_back("comm_seconds", Value(r.comm_seconds));
    o.emplace_back("bytes_sent", Value(r.bytes_sent));
    o.emplace_back("retries", Value(r.retries));
    o.emplace_back("redistributed_work_items", Value(r.redistributed_work_items));
    o.emplace_back("migrated_chunks", Value(r.migrated_chunks));
    o.emplace_back("corruption_injected", Value(r.corruption_injected));
    o.emplace_back("corruption_detected", Value(r.corruption_detected));
    o.emplace_back("corruption_recomputed", Value(r.corruption_recomputed));
    o.emplace_back("corruption_retransmits", Value(r.corruption_retransmits));
    o.emplace_back("died", Value(r.died));
    ranks.emplace_back(std::move(o));
  }

  Object root;
  root.emplace_back("schema_version", Value(kRunResultSchemaVersion));
  root.emplace_back("label", Value(doc.label));
  root.emplace_back("energy", Value(doc.energy));
  root.emplace_back("ranks", Value(doc.ranks));
  root.emplace_back("threads_per_rank", Value(doc.threads_per_rank));
  root.emplace_back("compute_seconds", Value(doc.compute_seconds));
  root.emplace_back("comm_seconds", Value(doc.comm_seconds));
  root.emplace_back("wall_seconds", Value(doc.wall_seconds));
  root.emplace_back("steals", Value(doc.steals));
  root.emplace_back("tasks", Value(doc.tasks));
  root.emplace_back("replicated_bytes", Value(doc.replicated_bytes));
  root.emplace_back("retries", Value(doc.retries));
  root.emplace_back("redistributed_work_items", Value(doc.redistributed_work_items));
  root.emplace_back("migrated_chunks", Value(doc.migrated_chunks));
  root.emplace_back("steal_grants", Value(doc.steal_grants));
  root.emplace_back("owned_bytes_per_rank", Value(doc.owned_bytes_per_rank));
  root.emplace_back("owned_halo_bytes", Value(doc.owned_halo_bytes));
  root.emplace_back("dirty_leaves", Value(doc.dirty_leaves));
  root.emplace_back("lists_rebuilt", Value(doc.lists_rebuilt));
  root.emplace_back("reused_fraction", Value(doc.reused_fraction));
  root.emplace_back("corruption_injected", Value(doc.corruption_injected));
  root.emplace_back("corruption_detected", Value(doc.corruption_detected));
  root.emplace_back("corruption_recomputed", Value(doc.corruption_recomputed));
  root.emplace_back("corruption_retransmits",
                    Value(doc.corruption_retransmits));
  root.emplace_back("cache_hit", Value(doc.cache_hit));
  root.emplace_back("queue_seconds", Value(doc.queue_seconds));
  root.emplace_back("serve_seconds", Value(doc.serve_seconds));
  root.emplace_back("batch_id", Value(doc.batch_id));
  root.emplace_back("degraded", Value(doc.degraded));
  root.emplace_back("killed", Value(doc.killed));
  root.emplace_back("resumed", Value(doc.resumed));
  root.emplace_back("stalls_converted", Value(doc.stalls_converted));
  root.emplace_back("born", Value(std::move(born)));
  root.emplace_back("rank_results", Value(std::move(ranks)));
  // Derived (parsers recompute or ignore): keeps dashboards one-pass.
  root.emplace_back("derived_modeled_seconds",
                    Value(doc.compute_seconds + doc.comm_seconds));
  if (!non_finite.empty()) {
    Array bad;
    bad.reserve(non_finite.size());
    for (std::string& f : non_finite) bad.push_back(Value(std::move(f)));
    root.emplace_back("non_finite_fields", Value(std::move(bad)));
  }
  return Value(std::move(root));
}

obs::json::Value run_result_to_json(const RunResult& result,
                                    const std::string& label) {
  return run_result_doc_to_json(doc_from_result(result, label));
}

RunResultParse run_result_from_json(const obs::json::Value& root) {
  RunResultParse out;
  if (!root.is_object()) {
    out.error = "run-result document is not a JSON object";
    return out;
  }
  const obs::json::Value* version = root.find("schema_version");
  if (version == nullptr || !version->is_number()) {
    out.error = "missing schema_version";
    return out;
  }
  out.found_version = static_cast<int>(version->as_number());
  if (out.found_version != kRunResultSchemaVersion) {
    // Loud rejection: a reader built for v2 must not quietly misread another
    // layout (same policy as metrics.json). v1 gets a version-specific
    // message because it is the one layout old tooling still emits.
    out.version_mismatch = true;
    if (out.found_version == 1) {
      out.error =
          "unsupported run-result schema_version 1 (this reader expects " +
          std::to_string(kRunResultSchemaVersion) +
          "; v2 added the REQUIRED serving fields cache_hit / queue_seconds / "
          "serve_seconds / batch_id — re-emit the document with a v2 writer)";
    } else {
      out.error = "unsupported run-result schema_version " +
                  std::to_string(out.found_version) + " (this reader expects " +
                  std::to_string(kRunResultSchemaVersion) + ")";
    }
    return out;
  }

  RunResultDoc& doc = out.doc;
  std::string& err = out.error;
  if (const obs::json::Value* bad = root.find("non_finite_fields");
      bad != nullptr && bad->is_array() && !bad->as_array().empty()) {
    err = "document flagged non-finite fields:";
    for (const obs::json::Value& f : bad->as_array())
      if (f.is_string()) err += " " + f.as_string();
    return out;
  }
  const obs::json::Value* label = root.find("label");
  if (label == nullptr || !label->is_string()) {
    err = "missing or non-string field: label";
    return out;
  }
  doc.label = label->as_string();
  if (!read_number(root, "energy", doc.energy, err) ||
      !read_int(root, "ranks", doc.ranks, err) ||
      !read_int(root, "threads_per_rank", doc.threads_per_rank, err) ||
      !read_number(root, "compute_seconds", doc.compute_seconds, err) ||
      !read_number(root, "comm_seconds", doc.comm_seconds, err) ||
      !read_number(root, "wall_seconds", doc.wall_seconds, err) ||
      !read_u64(root, "steals", doc.steals, err) ||
      !read_u64(root, "tasks", doc.tasks, err) ||
      !read_u64(root, "replicated_bytes", doc.replicated_bytes, err) ||
      !read_u64(root, "retries", doc.retries, err) ||
      !read_u64(root, "redistributed_work_items", doc.redistributed_work_items,
                err) ||
      !read_u64(root, "migrated_chunks", doc.migrated_chunks, err) ||
      !read_u64(root, "steal_grants", doc.steal_grants, err) ||
      !read_bool(root, "degraded", doc.degraded, err) ||
      !read_bool(root, "killed", doc.killed, err) ||
      !read_bool(root, "resumed", doc.resumed, err) ||
      !read_int(root, "stalls_converted", doc.stalls_converted, err))
    return out;

  // v2 serving fields: REQUIRED (the version bump exists so readers can rely
  // on them; absence is a malformed v2 document, not an older layout).
  if (!read_bool(root, "cache_hit", doc.cache_hit, err) ||
      !read_number(root, "queue_seconds", doc.queue_seconds, err) ||
      !read_number(root, "serve_seconds", doc.serve_seconds, err) ||
      !read_u64(root, "batch_id", doc.batch_id, err))
    return out;

  // Pure v1 additions (owned mode): optional, so pre-owned-mode documents
  // parse as zero rather than rejecting (same policy as migrated_chunks in
  // metrics.json).
  if (root.find("owned_bytes_per_rank") != nullptr &&
      !read_u64(root, "owned_bytes_per_rank", doc.owned_bytes_per_rank, err))
    return out;
  if (root.find("owned_halo_bytes") != nullptr &&
      !read_u64(root, "owned_halo_bytes", doc.owned_halo_bytes, err))
    return out;
  // Pure v1 additions (incremental trajectories): same optional policy.
  if (root.find("dirty_leaves") != nullptr &&
      !read_u64(root, "dirty_leaves", doc.dirty_leaves, err))
    return out;
  if (root.find("lists_rebuilt") != nullptr &&
      !read_u64(root, "lists_rebuilt", doc.lists_rebuilt, err))
    return out;
  if (root.find("reused_fraction") != nullptr &&
      !read_number(root, "reused_fraction", doc.reused_fraction, err))
    return out;
  // Pure v1 additions (data-integrity layer): same optional policy.
  if (root.find("corruption_injected") != nullptr &&
      !read_u64(root, "corruption_injected", doc.corruption_injected, err))
    return out;
  if (root.find("corruption_detected") != nullptr &&
      !read_u64(root, "corruption_detected", doc.corruption_detected, err))
    return out;
  if (root.find("corruption_recomputed") != nullptr &&
      !read_u64(root, "corruption_recomputed", doc.corruption_recomputed, err))
    return out;
  if (root.find("corruption_retransmits") != nullptr &&
      !read_u64(root, "corruption_retransmits", doc.corruption_retransmits,
                err))
    return out;

  const obs::json::Value* born = root.find("born");
  if (born == nullptr || !born->is_object()) {
    err = "missing or non-object field: born";
    return out;
  }
  if (!read_u64(*born, "count", doc.born_count, err) ||
      !read_number(*born, "first", doc.born_first, err) ||
      !read_number(*born, "middle", doc.born_middle, err) ||
      !read_number(*born, "last", doc.born_last, err) ||
      !read_number(*born, "mean", doc.born_mean, err))
    return out;

  const obs::json::Value* ranks = root.find("rank_results");
  if (ranks == nullptr || !ranks->is_array()) {
    err = "missing or non-array field: rank_results";
    return out;
  }
  for (const obs::json::Value& entry : ranks->as_array()) {
    if (!entry.is_object()) {
      err = "rank_results entry is not an object";
      return out;
    }
    mpisim::RankResult r;
    if (!read_number(entry, "compute_seconds", r.compute_seconds, err) ||
        !read_number(entry, "straggler_seconds", r.straggler_seconds, err) ||
        !read_number(entry, "comm_seconds", r.comm_seconds, err) ||
        !read_u64(entry, "bytes_sent", r.bytes_sent, err) ||
        !read_u64(entry, "retries", r.retries, err) ||
        !read_u64(entry, "redistributed_work_items", r.redistributed_work_items,
                  err) ||
        !read_u64(entry, "migrated_chunks", r.migrated_chunks, err) ||
        !read_bool(entry, "died", r.died, err))
      return out;
    // Optional v1 additions (data-integrity layer).
    if (entry.find("corruption_injected") != nullptr &&
        !read_u64(entry, "corruption_injected", r.corruption_injected, err))
      return out;
    if (entry.find("corruption_detected") != nullptr &&
        !read_u64(entry, "corruption_detected", r.corruption_detected, err))
      return out;
    if (entry.find("corruption_recomputed") != nullptr &&
        !read_u64(entry, "corruption_recomputed", r.corruption_recomputed,
                  err))
      return out;
    if (entry.find("corruption_retransmits") != nullptr &&
        !read_u64(entry, "corruption_retransmits", r.corruption_retransmits,
                  err))
      return out;
    doc.rank_results.push_back(r);
  }

  out.ok = true;
  out.error.clear();
  return out;
}

RunResultParse run_result_from_string(const std::string& text) {
  const obs::json::ParseResult parsed = obs::json::parse(text);
  if (!parsed.ok) {
    RunResultParse out;
    out.error = "run-result JSON parse error: " + parsed.error;
    return out;
  }
  return run_result_from_json(parsed.value);
}

bool write_run_result_json(const RunResult& result, const std::string& label,
                           const std::string& path) {
  std::ofstream os(path, std::ios::trunc);
  if (!os) return false;
  os << run_result_to_json(result, label).dump() << '\n';
  return static_cast<bool>(os);
}

}  // namespace gbpol
