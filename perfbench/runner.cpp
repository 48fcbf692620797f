#include "runner.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <set>

#include "core/born_octree.hpp"
#include "core/epol_octree.hpp"
#include "core/incremental.hpp"
#include "core/naive.hpp"
#include "loop.hpp"
#include "obs/trace.hpp"
#include "stats.hpp"
#include "surface/quadrature.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using gbpol::Prepared;
using gbpol::RunOptions;
using gbpol::RunResult;
using gbpol::ServePath;

// Set-up is repeated and its median reported: one sample is too noisy for a
// metric later changes are gated on.
constexpr std::size_t kSetups = 9;
constexpr std::size_t kWarmupIndex = std::numeric_limits<std::size_t>::max();

struct Served {
  std::size_t index = 0;
  Request request;
  bool failed = false;
  std::string error;
  gbpol::ServeResult result;
  Timing timing;
};

struct Pass {
  std::vector<Served> served;
  gbpol::ServiceStats stats;
  std::size_t cache_bytes = 0;
  // Closed loop: the sum of latencies (client think time excluded).
  // Open loop: first due time to last answer.
  double window_s = 0.0;
};

std::string job_id(std::size_t index) { return "r" + std::to_string(index); }

bool computed(const Served& s) {
  return !s.failed && s.result.path != ServePath::kMemoized &&
         s.result.path != ServePath::kReplayed;
}

void drain_one(gbpol::Service& service, Served& s) {
  try {
    std::vector<gbpol::ServeResult> out = service.drain(1);
    if (out.size() != 1 || out.front().job_id != job_id(s.index)) {
      s.failed = true;
      s.error = "drain(1) did not answer " + job_id(s.index);
      return;
    }
    s.result = std::move(out.front());
  } catch (const std::exception& e) {
    s.failed = true;
    s.error = e.what();
  }
}

// Serves the workload's stream of w.requests requests.
Pass serve_stream(const Workload& w, gbpol::Service& service, Tracer& tracer,
                  Tracer& generator_tracer) {
  Pass pass;
  const std::size_t count = w.requests;
  if (w.open_loop) {
    pass.served.resize(count);
    for (std::size_t i = 0; i < count; ++i) {
      pass.served[i].index = i;
      pass.served[i].request = w.request_at(i);
    }
    std::size_t next = 0;  // the service answers in acceptance order
    const std::vector<Timing> timings = open_loop(
        w.arrival_rate, count,
        [&](std::size_t i) {
          // Built at submit time, so only queued requests hold a copy of
          // their molecule. The copy (microseconds at these sizes) is part
          // of the request's latency, and of later requests' lag if it puts
          // the generator behind schedule.
          gbpol::ServeRequest request = w.serve_request(pass.served[i].request, job_id(i));
          Tracer::Scope span(generator_tracer, "serve.submit", i);
          service.submit(std::move(request));
        },
        [&]() {
          const std::size_t i = next++;
          Tracer::Scope span(tracer, "serve.drain", i);
          drain_one(service, pass.served[i]);
          return i;
        });
    Clock::time_point last = timings.front().due;
    for (std::size_t i = 0; i < count; ++i) {
      pass.served[i].timing = timings[i];
      last = std::max(last, timings[i].answered);
    }
    pass.window_s = seconds_between(timings.front().due, last);
  } else {
    gbpol::ServeRequest pending;
    const auto prepare = [&](std::size_t i) {
      Served s;
      s.index = i;
      s.request = w.request_at(i);
      pending = w.serve_request(s.request, job_id(i));
      pass.served.push_back(std::move(s));
    };
    const auto send_and_wait = [&](std::size_t i) {
      Tracer::Scope root(tracer, "request", i);
      {
        Tracer::Scope span(tracer, "serve.submit", i);
        service.submit(std::move(pending));
      }
      Tracer::Scope span(tracer, "serve.drain", i);
      drain_one(service, pass.served.back());
    };
    const std::vector<Timing> timings = closed_loop(count, prepare, send_and_wait);
    for (std::size_t i = 0; i < timings.size(); ++i) {
      pass.served[i].timing = timings[i];
      pass.window_s += timings[i].latency_s();
    }
  }
  pass.stats = service.stats();
  pass.cache_bytes = service.cache_bytes();
  return pass;
}

// --- set-up --------------------------------------------------------------

struct SetUp {
  std::unique_ptr<gbpol::Service> service;
  std::vector<double> seconds;
  Served warmup;
};

// Constructs the service (and its pool) and serves the warm-up request,
// kSetups times; the last service is kept for the run.
SetUp set_up(const Workload& w) {
  SetUp out;
  for (std::size_t k = 0; k < kSetups; ++k) {
    out.service.reset();  // joins the previous pool outside the timing
    Served warm;
    warm.index = kWarmupIndex;
    warm.request = w.warmup;
    gbpol::ServeRequest request = w.serve_request(w.warmup, job_id(warm.index));
    const Clock::time_point start = Clock::now();
    auto service = std::make_unique<gbpol::Service>(w.service);
    service->submit(std::move(request));
    drain_one(*service, warm);
    out.seconds.push_back(seconds_between(start, Clock::now()));
    out.warmup = std::move(warm);
    out.service = std::move(service);
  }
  return out;
}

// --- answer checking -----------------------------------------------------

struct Reference {
  double energy = 0.0;
  std::vector<double> born_sorted;
};

bool same_value(double a, double b, double rel_tol) {
  if (rel_tol == 0.0) return a == b;
  return std::abs(a - b) <= rel_tol * std::max(std::abs(a), std::abs(b));
}

// Empty when `result` matches `ref`, else what differed.
std::string compare(const Reference& ref, const RunResult& result, double rel_tol) {
  char buf[160];
  if (!std::isfinite(result.energy)) return "non-finite energy";
  if (!same_value(ref.energy, result.energy, rel_tol)) {
    std::snprintf(buf, sizeof(buf), "energy %.17g, reference %.17g", result.energy,
                  ref.energy);
    return buf;
  }
  // Journal replays carry no Born array; nothing else may omit it.
  if (result.born_sorted.size() != ref.born_sorted.size())
    return "Born radii missing or of the wrong length";
  for (std::size_t i = 0; i < ref.born_sorted.size(); ++i)
    if (!same_value(ref.born_sorted[i], result.born_sorted[i], rel_tol)) {
      std::snprintf(buf, sizeof(buf), "Born radius %zu: %.17g, reference %.17g", i,
                    result.born_sorted[i], ref.born_sorted[i]);
      return buf;
    }
  return {};
}

RunOptions unpooled(const Workload& w) {
  RunOptions run = w.service.run;
  run.pool = nullptr;
  return run;
}

Reference direct_reference(const Workload& w, const Request& r) {
  const gbpol::surface::SurfaceQuadrature quad =
      gbpol::surface::molecular_surface_quadrature(*r.mol, w.surface);
  const Prepared prep = Prepared::build(*r.mol, quad, r.params.leaf_capacity);
  RunResult res = gbpol::Engine(prep, r.params, w.constants).run(unpooled(w));
  return {res.energy, std::move(res.born_sorted)};
}

std::vector<gbpol::Vec3> positions_of(const gbpol::Molecule& mol) {
  std::vector<gbpol::Vec3> pos;
  pos.reserve(mol.size());
  for (const gbpol::Atom& a : mol.atoms()) pos.push_back(a.pos);
  return pos;
}

// A docking family as the service keys it: the geometry's atom identity plus
// the evaluation parameters (here, eps_epol is the only one that varies).
using FamilyKey = std::pair<int, double>;
FamilyKey family_key(const Request& r) { return {r.family, r.params.eps_epol}; }

// Checks answers in serve order against references computed outside the
// timed region: a direct unpooled Engine::run for cold, cached and memo
// answers, and a mirror ReuseMode::kCold TrajectoryDriver per family, fed
// the same poses in the same order, for delta answers. References are kept
// by request content, so a repeat is checked against its original.
class Checker {
 public:
  explicit Checker(const Workload& w) : w_(w) {}

  std::string check(const Served& s) {
    if (s.failed) return s.error;
    const RunResult& result = s.result.result;
    const auto known = refs_.find(s.request.content);
    if (known != refs_.end()) return compare(known->second, result, w_.answer_rel_tol);

    Reference ref;
    switch (s.result.path) {
      case ServePath::kCold:
      case ServePath::kCached:
        ref = direct_reference(w_, s.request);
        first_geometry_.try_emplace(family_key(s.request), s.request.mol);
        break;
      case ServePath::kDelta: {
        const FamilyKey key = family_key(s.request);
        const auto anchor = first_geometry_.find(key);
        if (anchor == first_geometry_.end()) return "delta answer for an unseen family";
        std::unique_ptr<gbpol::TrajectoryDriver>& mirror = mirrors_[key];
        if (mirror == nullptr) {
          gbpol::TrajectoryOptions topt;
          topt.skin = w_.service.delta_skin;
          topt.surface = w_.surface;
          mirror = std::make_unique<gbpol::TrajectoryDriver>(*anchor->second, topt,
                                                             s.request.params,
                                                             w_.constants);
        }
        RunOptions run = unpooled(w_);
        run.reuse = gbpol::ReuseMode::kCold;
        RunResult twin = mirror->step(positions_of(*s.request.mol), run);
        ref = {twin.energy, std::move(twin.born_sorted)};
        break;
      }
      case ServePath::kMemoized:
      case ServePath::kReplayed:
        return std::string("stored answer (") + gbpol::serve_path_name(s.result.path) +
               ") with no original";
    }
    std::string verdict = compare(ref, result, w_.answer_rel_tol);
    refs_.emplace(s.request.content, std::move(ref));
    return verdict;
  }

  // The reference of content already checked (for the traced replay).
  const Reference* find(std::uint64_t content) const {
    const auto it = refs_.find(content);
    return it == refs_.end() ? nullptr : &it->second;
  }

 private:
  const Workload& w_;
  std::map<std::uint64_t, Reference> refs_;
  std::map<FamilyKey, std::shared_ptr<const gbpol::Molecule>> first_geometry_;
  std::map<FamilyKey, std::unique_ptr<gbpol::TrajectoryDriver>> mirrors_;
};

// Marks every answer that fails its check; returns the number of failures.
std::uint64_t check_pass(Checker& checker, Pass& pass) {
  std::uint64_t failed = 0;
  for (Served& s : pass.served) {
    std::string verdict = checker.check(s);
    if (verdict.empty()) continue;
    if (!s.failed) {
      s.failed = true;
      s.error = verdict;
    }
    ++failed;
    if (failed <= 5)
      std::printf("FAILED request %zu (%s, path %s): %s\n", s.index,
                  kind_name(s.request.kind), gbpol::serve_path_name(s.result.path),
                  s.error.c_str());
  }
  return failed;
}

double epol_rel_err(const Workload& w) {
  const Request& r = w.smallest;
  const gbpol::surface::SurfaceQuadrature quad =
      gbpol::surface::molecular_surface_quadrature(*r.mol, w.surface);
  const Prepared prep = Prepared::build(*r.mol, quad, r.params.leaf_capacity);
  const double energy = gbpol::Engine(prep, r.params, w.constants).run(unpooled(w)).energy;
  const double exact = gbpol::run_naive(*r.mol, quad, w.constants).energy;
  return std::abs(energy - exact) / std::abs(exact);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

template <typename Fn>
double mean_over(const std::vector<Served>& served, Fn&& value) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const Served& s : served)
    if (computed(s)) {
      sum += value(s.result.result);
      ++n;
    }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

void print_pass(const char* label, const Pass& pass) {
  std::map<std::string, std::size_t> paths;
  for (const Served& s : pass.served)
    ++paths[s.failed ? std::string("failed") : gbpol::serve_path_name(s.result.path)];
  std::printf("%s: %zu requests, window %.3f s, paths:", label, pass.served.size(),
              pass.window_s);
  for (const auto& [path, n] : paths) std::printf(" %s=%zu", path.c_str(), n);
  std::printf("\n");
}

// --- end-to-end metrics --------------------------------------------------

// The harness's own share of peak_rss_mb: the distinct input molecules it
// keeps for the checks after the window.
double harness_molecules_mb(const Pass& pass) {
  std::set<const gbpol::Molecule*> distinct;
  double bytes = 0.0;
  for (const Served& s : pass.served)
    if (distinct.insert(s.request.mol.get()).second)
      bytes += static_cast<double>(s.request.mol->size() * sizeof(gbpol::Atom));
  return bytes / (1024.0 * 1024.0);
}

void end_to_end_metrics(const Workload& w, const SetUp& setup, const Pass& pass,
                        double rss_mb, double rel_err, RunReport& report) {
  std::vector<double> latency;
  std::uint64_t met = 0;
  double atoms = 0.0;
  for (const Served& s : pass.served) {
    if (s.failed) continue;  // a failed request misses every limit
    const double l = s.timing.latency_s();
    latency.push_back(l);
    if (l <= w.latency_limit_s) ++met;
    atoms += static_cast<double>(s.request.mol->size());
  }
  const double sent = static_cast<double>(pass.served.size());
  report.metrics = {
      {"setup_s", median(setup.seconds), "s"},
      {"latency_p50_s", percentile(latency, 0.50), "s"},
      {"latency_p90_s", percentile(latency, 0.90), "s"},
      {"atoms_per_s", atoms / pass.window_s, "atoms/s"},
      {"goodput_rps", static_cast<double>(met) / pass.window_s, "1/s"},
      {"slo_attainment", static_cast<double>(met) / sent, "fraction"},
      {"modeled_makespan_s",
       mean_over(pass.served, [](const RunResult& r) { return r.modeled_seconds(); }),
       "s"},
      {"peak_rss_mb", rss_mb, "MB"},
      {"epol_rel_err", rel_err, "fraction"},
  };
  report.details = {
      {"samples", sent, "count"},
      {"highest_percentile_with_10_beyond",
       static_cast<double>(highest_supported_percentile(latency.size())), "%"},
      {"failed_fraction", static_cast<double>(report.failed) / sent, "fraction"},
      {"latency_limit_s", w.latency_limit_s, "s"},
      {"window_s", pass.window_s, "s"},
      {"harness.molecules_mb", harness_molecules_mb(pass), "MB"},
      {"loadgen.lag_p90_s",
       percentile([&] {
         std::vector<double> lag;
         for (const Served& s : pass.served) lag.push_back(s.timing.lag_s);
         return lag;
       }(), 0.90),
       "s"},
  };
}

// --- traced run ----------------------------------------------------------

// Per-layer figures gathered by the replay of the traced requests.
struct Replay {
  Tracer tracer;
  std::size_t replayed = 0;
  std::size_t probed = 0;
  double engine_unmodeled_s = 0.0;
  std::size_t engine_runs = 0;
  double qpoints = 0.0;
  double footprint_bytes = 0.0;
  std::size_t prepared = 0;
  double born_far_entries = 0.0, epol_far_entries = 0.0;
  double born_near_pairs = 0.0, epol_near_pairs = 0.0;
  std::uint64_t mismatches = 0;
  // request index -> self seconds of the layers the service path also runs
  std::map<std::size_t, double> layer_seconds;
  // The stage walk's list and kernel spans, and an untraced serial
  // Engine::run of the same prepared requests.
  double stage_walk_s = 0.0;
  double serial_run_s = 0.0;
};

// The serial run shape with the workload's traversal and SIMD choice.
RunOptions serial_shape(const Workload& w) {
  RunOptions run = gbpol::serial_options(w.service.run.traversal);
  run.simd = w.service.run.simd;
  run.trace_out = w.service.run.trace_out;
  run.campaign_dir = w.service.run.campaign_dir;
  return run;
}

// Serial walk of the solver stages Engine::run's serial driver performs, one
// span per public call, on one prepared request.
RunResult kernel_probe(const Workload& w, const Request& r, const Prepared& prep,
                       std::size_t index, Replay& out) {
  Tracer& tr = out.tracer;
  Tracer::Scope root(tr, "kernel_probe", index);
  std::optional<gbpol::BornSolver> born;
  gbpol::InteractionLists born_lists;
  {
    Tracer::Scope span(tr, "lists.born_build", index);
    born.emplace(prep, r.params);
    born_lists = born->build_lists(0, static_cast<std::uint32_t>(prep.q_tree.leaves().size()));
  }
  gbpol::BornAccumulator acc = born->make_accumulator();
  {
    Tracer::Scope span(tr, "kernel.born_far", index);
    born->accumulate_far_range(born_lists, 0, born_lists.far.size(), acc);
  }
  {
    Tracer::Scope span(tr, "kernel.born_near", index);
    born->accumulate_near_range(born_lists, 0, born_lists.near.size(), acc);
  }
  RunResult result;
  {
    Tracer::Scope span(tr, "kernel.push", index);
    result.born_sorted.assign(prep.num_atoms(), 0.0);
    born->push_to_atoms(acc, 0, static_cast<std::uint32_t>(prep.num_atoms()),
                        result.born_sorted);
  }
  std::optional<gbpol::EpolSolver> epol;
  {
    Tracer::Scope span(tr, "kernel.epol_setup", index);
    epol.emplace(prep, result.born_sorted, r.params, w.constants);
  }
  gbpol::InteractionLists epol_lists;
  {
    Tracer::Scope span(tr, "lists.epol_build", index);
    epol_lists = epol->build_lists(
        0, static_cast<std::uint32_t>(prep.atoms_tree.leaves().size()));
  }
  double far = 0.0, near = 0.0;
  {
    Tracer::Scope span(tr, "kernel.epol_far", index);
    far = epol->energy_far_range(epol_lists, 0, epol_lists.far.size());
  }
  {
    Tracer::Scope span(tr, "kernel.epol_near", index);
    near = epol->energy_near_range(epol_lists, 0, epol_lists.near.size());
  }
  // The same expression as EpolSolver::energy_from_lists.
  result.energy = far + near;
  out.born_far_entries += static_cast<double>(born_lists.far.size());
  out.epol_far_entries += static_cast<double>(epol_lists.far.size());
  out.born_near_pairs += static_cast<double>(born_lists.near_point_pairs);
  out.epol_near_pairs += static_cast<double>(epol_lists.near_point_pairs);
  ++out.probed;
  return result;
}

// Replays the traced requests outside the service, through the public
// functions of each layer, until `budget_s` has passed. Cold requests run
// surface -> Prepared::build -> Engine::run, cached ones Engine::run on the
// prepared geometry, delta ones TrajectoryDriver::step; each cold or cached
// request is also walked through the serial solver stages and run once more
// by an untraced serial Engine::run.
Replay replay_layers(const Workload& w, const Pass& pass, Checker& checker,
                     double budget_s) {
  Replay out;
  Tracer& tr = out.tracer;
  std::unique_ptr<gbpol::mpisim::PersistentPool> pool;
  if (w.service.run.mode == gbpol::EngineMode::kDistributed)
    pool = std::make_unique<gbpol::mpisim::PersistentPool>(w.service.run.ranks);
  RunOptions run = w.service.run;
  run.pool = pool.get();

  std::map<const gbpol::Molecule*, std::shared_ptr<const Prepared>> prepared;
  std::map<FamilyKey, std::shared_ptr<const gbpol::Molecule>> first_geometry;
  std::map<FamilyKey, std::unique_ptr<gbpol::TrajectoryDriver>> drivers;

  const Clock::time_point start = Clock::now();
  for (const Served& s : pass.served) {
    if (seconds_between(start, Clock::now()) >= budget_s) break;
    if (!computed(s)) continue;
    const std::size_t i = s.index;
    const Request& r = s.request;
    const std::size_t first_span = tr.spans().size();
    RunResult answer;
    std::shared_ptr<const Prepared> prep;
    {
      Tracer::Scope root(tr, "replay", i);
      if (s.result.path == ServePath::kDelta) {
        const FamilyKey key = family_key(r);
        std::unique_ptr<gbpol::TrajectoryDriver>& driver = drivers[key];
        if (driver == nullptr) {
          const auto anchor = first_geometry.find(key);
          if (anchor == first_geometry.end()) break;  // anchor was not replayed
          Tracer::Scope span(tr, "trajectory.init", i);
          gbpol::TrajectoryOptions topt;
          topt.skin = w.service.delta_skin;
          topt.surface = w.surface;
          driver = std::make_unique<gbpol::TrajectoryDriver>(*anchor->second, topt,
                                                             r.params, w.constants);
        }
        const std::vector<gbpol::Vec3> pos = positions_of(*r.mol);
        Tracer::Scope span(tr, "trajectory.step", i);
        answer = driver->step(pos, run);
      } else {
        // A cached answer reuses the geometry's preparation (built untimed
        // if the replay never saw it cold); a cold one pays for its own.
        const auto cached = prepared.find(r.mol.get());
        if (s.result.path == ServePath::kCached && cached != prepared.end()) {
          prep = cached->second;
        } else if (s.result.path == ServePath::kCached) {
          prep = std::make_shared<const Prepared>(Prepared::build(
              *r.mol, gbpol::surface::molecular_surface_quadrature(*r.mol, w.surface),
              r.params.leaf_capacity));
        } else {
          gbpol::surface::SurfaceQuadrature quad;
          {
            Tracer::Scope span(tr, "surface", i);
            quad = gbpol::surface::molecular_surface_quadrature(*r.mol, w.surface);
          }
          Tracer::Scope span(tr, "prepare", i);
          prep = std::make_shared<const Prepared>(
              Prepared::build(*r.mol, quad, r.params.leaf_capacity));
          out.qpoints += static_cast<double>(quad.size());
          out.footprint_bytes += static_cast<double>(prep->replicated_footprint().bytes);
          ++out.prepared;
        }
        prepared.insert_or_assign(r.mol.get(), prep);
        first_geometry.try_emplace(family_key(r), r.mol);
        Tracer::Scope span(tr, "engine.run", i);
        answer = gbpol::Engine(*prep, r.params, w.constants).run(run);
      }
    }
    double layers = 0.0;
    for (std::size_t k = first_span; k < tr.spans().size(); ++k)
      if (tr.spans()[k].parent >= 0) layers += tr.spans()[k].self_seconds();
    out.layer_seconds[i] = layers;
    ++out.replayed;
    if (prep != nullptr) {
      out.engine_unmodeled_s += answer.wall_seconds - answer.modeled_seconds();
      ++out.engine_runs;
    }

    // The replay computes the same answers the service gave.
    const Reference* ref = checker.find(r.content);
    if (ref == nullptr || !compare(*ref, answer, w.answer_rel_tol).empty()) {
      ++out.mismatches;
      std::printf("FAILED replay of request %zu (%s)\n", i, kind_name(r.kind));
    }
    if (prep != nullptr) {
      const std::size_t first_stage = tr.spans().size();
      const RunResult probe = kernel_probe(w, r, *prep, i, out);
      for (std::size_t k = first_stage; k < tr.spans().size(); ++k)
        if (tr.spans()[k].parent >= 0) out.stage_walk_s += tr.spans()[k].self_seconds();
      // The stage walk is Engine::run's serial driver: its stage times must
      // add up to an untraced serial run of the same request, and it must
      // reproduce that run's answer. Only the final far + near sum may
      // round differently, because the library's own TU may contract it
      // into an FMA.
      const Clock::time_point serial_start = Clock::now();
      const RunResult serial_run =
          gbpol::Engine(*prep, r.params, w.constants).run(serial_shape(w));
      out.serial_run_s += seconds_between(serial_start, Clock::now());
      const std::string verdict =
          compare({serial_run.energy, serial_run.born_sorted}, probe, 1e-12);
      if (!verdict.empty()) {
        ++out.mismatches;
        std::printf("FAILED stage walk of request %zu: %s\n", i, verdict.c_str());
      }
    }
  }
  return out;
}

void traced_metrics(const Pass& untraced, const Pass& traced,
                    const Tracer& serve_tracer, const gbpol::obs::MetricsSnapshot& obs,
                    const Replay& replay, RunReport& report) {
  const auto self = replay.tracer.self_seconds_by_name();
  const auto count = replay.tracer.count_by_name();
  const auto mean_self = [&](const char* name) {
    const auto n = count.find(name);
    return n == count.end() ? 0.0 : self.at(name) / static_cast<double>(n->second);
  };
  const auto per = [](double total, std::size_t n) {
    return n == 0 ? 0.0 : total / static_cast<double>(n);
  };

  // Service-side figures of the traced pass.
  std::vector<double> queue_wait, lag;
  std::map<ServePath, std::vector<double>> path_seconds;
  double dirty = 0.0, rebuilt = 0.0, reused = 0.0;
  std::size_t deltas = 0, reanchors = 0;
  std::size_t computed_requests = 0;
  double imbalance = 0.0;
  for (const Served& s : traced.served) {
    lag.push_back(s.timing.lag_s);
    if (s.failed) continue;
    const RunResult& r = s.result.result;
    queue_wait.push_back(r.queue_seconds);
    path_seconds[s.result.path].push_back(r.serve_seconds);
    if (s.result.path == ServePath::kDelta) {
      ++deltas;
      dirty += static_cast<double>(r.dirty_leaves);
      rebuilt += static_cast<double>(r.lists_rebuilt);
      reused += r.reused_fraction;
      if (r.lists_rebuilt > 0) ++reanchors;
    }
    if (!computed(s)) continue;
    ++computed_requests;
    double max_c = 0.0, sum_c = 0.0;
    for (const gbpol::mpisim::RankResult& rr : r.rank_results) {
      max_c = std::max(max_c, rr.compute_seconds);
      sum_c += rr.compute_seconds;
    }
    imbalance += r.rank_results.empty() || sum_c <= 0.0
                     ? 1.0
                     : max_c * static_cast<double>(r.rank_results.size()) / sum_c;
  }
  const auto path_median = [&](ServePath p) {
    const auto it = path_seconds.find(p);
    return it == path_seconds.end() ? 0.0 : median(it->second);
  };

  // Per-rank phases and collectives from the program's own obs session.
  const auto max_rank_phase = [&](std::initializer_list<gbpol::obs::PhaseId> phases,
                                  bool wall) {
    double best = 0.0;
    const auto& table = wall ? obs.phase_wall_seconds : obs.phase_busy_seconds;
    for (const auto& row : table) {
      double sum = 0.0;
      for (const gbpol::obs::PhaseId p : phases) sum += row[static_cast<std::size_t>(p)];
      best = std::max(best, sum);
    }
    return per(best, computed_requests);
  };
  std::uint64_t collectives = 0;
  for (const auto& row : obs.collective_count)
    collectives = std::accumulate(row.begin(), row.end(), collectives);

  // Reconciliation: the layers the replay timed against the traced service
  // time of the same requests, the stage walk against an untraced serial
  // run, and the tracing overhead as the traced minus the untraced latency
  // over the same requests.
  std::map<std::size_t, double> drain_seconds;
  for (const Span& s : serve_tracer.spans())
    if (s.name == "serve.drain") drain_seconds[s.request] += s.seconds();
  double layers = 0.0, drained = 0.0;
  for (const auto& [index, seconds] : replay.layer_seconds) {
    layers += seconds;
    drained += drain_seconds[index];
  }
  const double reconcile_gap = drained > 0.0 ? std::abs(layers - drained) / drained : 0.0;
  const double kernel_gap =
      replay.serial_run_s > 0.0
          ? std::abs(replay.stage_walk_s - replay.serial_run_s) / replay.serial_run_s
          : 0.0;
  const auto mean_latency = [](const Pass& p) {
    double sum = 0.0;
    for (const Served& s : p.served) sum += s.timing.latency_s();
    return p.served.empty() ? 0.0 : sum / static_cast<double>(p.served.size());
  };
  const double overhead = mean_latency(traced) - mean_latency(untraced);

  const gbpol::ServiceStats& st = traced.stats;
  const double lookups = static_cast<double>(st.cache_hits + st.cache_misses);
  const auto mean = [&](auto&& f) { return mean_over(traced.served, f); };
  using gbpol::obs::PhaseId;
  report.metrics = {
      {"surface.march_s", mean_self("surface"), "s"},
      {"surface.qpoints", per(replay.qpoints, replay.prepared), "count"},
      {"prepare.build_s", mean_self("prepare"), "s"},
      {"prepare.footprint_bytes", per(replay.footprint_bytes, replay.prepared), "bytes"},
      {"lists.born_build_s", mean_self("lists.born_build"), "s"},
      {"lists.epol_build_s", mean_self("lists.epol_build"), "s"},
      {"lists.born_far_entries", per(replay.born_far_entries, replay.probed), "count"},
      {"lists.epol_far_entries", per(replay.epol_far_entries, replay.probed), "count"},
      {"lists.born_near_pairs", per(replay.born_near_pairs, replay.probed), "count"},
      {"lists.epol_near_pairs", per(replay.epol_near_pairs, replay.probed), "count"},
      {"kernel.born_far_s", mean_self("kernel.born_far"), "s"},
      {"kernel.born_near_s", mean_self("kernel.born_near"), "s"},
      {"kernel.push_s", mean_self("kernel.push"), "s"},
      {"kernel.epol_far_s", mean_self("kernel.epol_far"), "s"},
      {"kernel.epol_near_s", mean_self("kernel.epol_near"), "s"},
      {"engine.run_s", mean_self("engine.run"), "s"},
      {"engine.unmodeled_s", per(replay.engine_unmodeled_s, replay.engine_runs), "s"},
      // RunResult::tasks/steals are filled by the cilk driver only, so the
      // pool's own counters from the obs session stand in for them.
      {"ws.steal_attempts", per(static_cast<double>(obs.steal_attempts), computed_requests),
       "count"},
      {"ws.steals", per(static_cast<double>(obs.steal_successes), computed_requests),
       "count"},
      {"ws.steal_success_ratio", obs.steal_success_rate(), "ratio"},
      {"mpisim.bytes_sent",
       mean([](const RunResult& r) { return static_cast<double>(r.total_bytes_sent()); }),
       "bytes"},
      {"mpisim.collectives", per(static_cast<double>(collectives), computed_requests),
       "count"},
      {"mpisim.rank_imbalance", per(imbalance, computed_requests), "ratio"},
      {"halo.bytes",
       mean([](const RunResult& r) { return static_cast<double>(r.owned_halo_bytes); }),
       "bytes"},
      {"halo.owned_bytes_per_rank",
       mean([](const RunResult& r) { return static_cast<double>(r.owned_bytes_per_rank); }),
       "bytes"},
      {"balance.migrated_chunks",
       mean([](const RunResult& r) { return static_cast<double>(r.migrated_chunks); }),
       "count"},
      {"balance.steal_grants",
       mean([](const RunResult& r) { return static_cast<double>(r.steal_grants); }),
       "count"},
      {"mpisim.comm_modeled_s", mean([](const RunResult& r) { return r.comm_seconds; }),
       "s"},
      {"phase.born_accum_s", max_rank_phase({PhaseId::kBornAccum}, false), "s"},
      {"phase.push_s", max_rank_phase({PhaseId::kPush}, false), "s"},
      {"phase.epol_s", max_rank_phase({PhaseId::kEpol}, false), "s"},
      {"phase.reduce_s",
       max_rank_phase({PhaseId::kBornReduce, PhaseId::kBornGather, PhaseId::kEpolReduce},
                      true),
       "s"},
      {"delta.step_s", mean_self("trajectory.step"), "s"},
      {"delta.dirty_leaves", per(dirty, deltas), "count"},
      {"delta.lists_rebuilt", per(rebuilt, deltas), "count"},
      {"delta.reused_fraction", per(reused, deltas), "fraction"},
      {"delta.reanchor_steps", static_cast<double>(reanchors), "count"},
      {"serve.queue_wait_p50_s", percentile(queue_wait, 0.50), "s"},
      {"serve.queue_wait_p90_s", percentile(queue_wait, 0.90), "s"},
      {"serve.path_s.cold", path_median(ServePath::kCold), "s"},
      {"serve.path_s.cached", path_median(ServePath::kCached), "s"},
      {"serve.path_s.memo", path_median(ServePath::kMemoized), "s"},
      {"serve.path_s.delta", path_median(ServePath::kDelta), "s"},
      {"serve.cache_hit_ratio",
       lookups > 0.0 ? static_cast<double>(st.cache_hits) / lookups : 0.0, "ratio"},
      {"serve.memo_hits", static_cast<double>(st.memo_hits), "count"},
      {"serve.evictions", static_cast<double>(st.cache_evictions), "count"},
      {"serve.cache_bytes", static_cast<double>(traced.cache_bytes), "bytes"},
      {"loadgen.lag_p90_s", percentile(lag, 0.90), "s"},
      {"trace.overhead_s", overhead, "s"},
      {"trace.reconcile_gap", reconcile_gap, "fraction"},
      {"trace.kernel_reconcile_gap", kernel_gap, "fraction"},
  };
  // Printed for the reader: stage times that are not metrics, the sums
  // behind the two reconciliation gaps, and the sample sizes of the means.
  report.details = {
      {"kernel.epol_setup_s", mean_self("kernel.epol_setup"), "s"},
      {"delta.init_s", mean_self("trajectory.init"), "s"},
      {"trace.layer_self_s", layers, "s"},
      {"trace.serve_drain_s", drained, "s"},
      {"trace.stage_walk_s", replay.stage_walk_s, "s"},
      {"trace.serial_run_s", replay.serial_run_s, "s"},
      {"trace.replayed_requests", static_cast<double>(replay.replayed), "count"},
      {"trace.probed_requests", static_cast<double>(replay.probed), "count"},
      {"trace.traced_requests", static_cast<double>(traced.served.size()), "count"},
  };
}

}  // namespace

RunReport run_workload(const RunArgs& args) {
  const Workload w = make_workload(args.workload, args.seed, args.seconds);
  RunReport report;

  SetUp setup = set_up(w);
  Tracer off(false);
  Pass pass = serve_stream(w, *setup.service, off, off);
  const double rss_mb = peak_rss_mb();
  print_pass("timed", pass);

  // Everything below is outside the timed region.
  Checker checker(w);
  {
    std::string verdict = checker.check(setup.warmup);
    if (!verdict.empty()) {
      ++report.other_mismatches;
      std::printf("FAILED warm-up request: %s\n", verdict.c_str());
    }
  }
  report.attempted = pass.served.size();
  report.failed = check_pass(checker, pass);

  if (!args.trace) {
    end_to_end_metrics(w, setup, pass, rss_mb, epol_rel_err(w), report);
    return report;
  }

  // Traced run: the same requests again on a fresh service, with spans
  // around every call into it and the program's obs session on, then the
  // layer replay.
  setup = set_up(w);
  Tracer serve_tracer(true), generator_tracer(true);
  gbpol::obs::start_session();
  Pass traced = serve_stream(w, *setup.service, serve_tracer, generator_tracer);
  const gbpol::obs::Trace obs_trace = gbpol::obs::stop_session();
  setup.service.reset();
  print_pass("traced", traced);
  report.attempted += traced.served.size();
  report.failed += check_pass(checker, traced);

  const Replay replay = replay_layers(w, traced, checker, args.seconds);
  report.other_mismatches += replay.mismatches;
  traced_metrics(pass, traced, serve_tracer, obs_trace.metrics, replay, report);
  return report;
}

}  // namespace perfbench
