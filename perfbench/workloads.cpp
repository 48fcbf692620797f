#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <thread>

#include "molecule/generate.hpp"
#include "molecule/suite.hpp"
#include "support/rng.hpp"

namespace perfbench {

using gbpol::Molecule;
using gbpol::Rng;
using gbpol::Vec3;

namespace {

// The coarse quadrature the repository's figure benches use: a few points
// per atom, the paper's operating regime for large molecules.
gbpol::surface::QuadratureParams bench_surface() {
  gbpol::surface::QuadratureParams q;
  q.grid_spacing = 2.0;
  q.dunavant_degree = 1;
  q.kappa = 2.3;
  return q;
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t state = seed ^ (salt * 0x9e3779b97f4a7c15ull);
  return gbpol::splitmix64(state);
}

template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[rng.next_below(i)]);
}

// "-" switches a trace or journal destination off explicitly, so the
// GBPOL_TRACE_OUT / GBPOL_CAMPAIGN_DIR defaults cannot leak into a run.
const std::string kOff = "-";

gbpol::RunOptions service_run(gbpol::RunOptions run) {
  run.trace_out = kOff;
  run.campaign_dir = kOff;
  return run;
}

Request fixed_request(Kind kind, Molecule mol, std::uint64_t content) {
  Request r;
  r.kind = kind;
  r.content = content;
  r.mol = std::make_shared<const Molecule>(std::move(mol));
  return r;
}

// --- zdock_hybrid --------------------------------------------------------

// Whole passes that fill `seconds` at `pass_seconds` each (at least one).
std::size_t whole_passes(double seconds, double pass_seconds) {
  return static_cast<std::size_t>(std::max(1.0, std::round(seconds / pass_seconds)));
}

// One pass over the suite takes ~5 s of serving on a 4-core x86-64-v3 box.
constexpr double kZdockPassSeconds = 5.0;

Workload zdock_hybrid(std::uint64_t seed, double seconds) {
  Workload w;
  w.name = "zdock_hybrid";
  w.latency_limit_s = 0.5;
  // The hybrid replicated path folds per-worker Born accumulators in the
  // order the work-stealing pool ran the chunks, so two runs of one request
  // may differ in the last bits.
  w.answer_rel_tol = 1e-12;
  w.service.run = service_run(gbpol::distributed_options(2, 2));
  w.service.cache_budget_bytes = std::size_t{64} << 20;  // suite: ~237 MiB
  w.service.memoize_results = false;  // passes repeat the suite: all misses
  w.service.campaign_dir = kOff;
  w.surface = bench_surface();

  auto suite = std::make_shared<std::vector<std::shared_ptr<const Molecule>>>();
  for (Molecule& m : gbpol::molgen::zdock_like_suite())
    suite->push_back(std::make_shared<const Molecule>(std::move(m)));
  std::vector<std::size_t> order(suite->size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng rng(mix(seed, 1));
  shuffle(order, rng);

  w.requests = whole_passes(seconds, kZdockPassSeconds) * order.size();
  w.request_at = [suite, order](std::size_t i) {
    const std::size_t k = order[i % order.size()];
    Request r;
    r.kind = Kind::kSuite;
    r.content = k;
    r.mol = (*suite)[k];
    return r;
  };
  std::size_t smallest = 0;
  for (std::size_t k = 1; k < suite->size(); ++k)
    if ((*suite)[k]->size() < (*suite)[smallest]->size()) smallest = k;
  w.smallest.kind = Kind::kSuite;
  w.smallest.content = smallest;
  w.smallest.mol = (*suite)[smallest];
  w.warmup = fixed_request(Kind::kWarmup, gbpol::molgen::bound_complex(2000, 4242),
                           ~std::uint64_t{0});
  return w;
}

// --- docking_mix ---------------------------------------------------------

// Close sizes keep each request kind's cost in one tight band, so the
// latency percentiles do not sit on a gap between families.
constexpr std::size_t kFamilySizes[] = {3000, 3500, 4000};
constexpr int kFamilies = 3;
constexpr double kSkin = 0.3;
constexpr double kSegment = 0.05;  // share of atoms a sub-skin pose moves
constexpr std::size_t kNewSizes[] = {3000, 3500, 4000};

Vec3 random_unit(Rng& rng) {
  for (;;) {
    const Vec3 v{rng.normal(), rng.normal(), rng.normal()};
    const double n = gbpol::norm(v);
    if (n > 1e-6) return v * (1.0 / n);
  }
}

// Rigid move of the last `fraction` of a complex's atoms: rotation by
// `angle` about their centroid, then a translation. The last quarter is the
// ligand chain (see molgen::bound_complex); a smaller tail is a flexible
// segment of it.
Molecule move_tail(const Molecule& base, double fraction, const Vec3& axis,
                   double angle, const Vec3& shift) {
  Molecule mol = base;
  auto atoms = mol.atoms();
  const std::size_t first =
      atoms.size() - static_cast<std::size_t>(fraction * static_cast<double>(atoms.size()));
  Vec3 c{0.0, 0.0, 0.0};
  for (std::size_t i = first; i < atoms.size(); ++i) c = c + atoms[i].pos;
  c = c * (1.0 / static_cast<double>(atoms.size() - first));
  const double cs = std::cos(angle), sn = std::sin(angle);
  for (std::size_t i = first; i < atoms.size(); ++i) {
    const Vec3 v = atoms[i].pos - c;
    const Vec3 rotated = v * cs + gbpol::cross(axis, v) * sn +
                         axis * (gbpol::dot(axis, v) * (1.0 - cs));
    atoms[i].pos = c + rotated + shift;
  }
  return mol;
}

Workload docking_mix(std::uint64_t seed, double seconds) {
  Workload w;
  w.name = "docking_mix";
  w.open_loop = true;
  w.arrival_rate = 7.0;
  w.latency_limit_s = 0.25;
  w.service.run = service_run(gbpol::serial_options());
  w.service.cache_budget_bytes = std::size_t{128} << 20;
  w.service.delta_skin = kSkin;
  w.service.campaign_dir = kOff;
  w.surface = bench_surface();

  // The receptor library is fixed; the seed drives the request stream.
  std::vector<std::shared_ptr<const Molecule>> bases;
  for (int b = 0; b < kFamilies; ++b)
    bases.push_back(std::make_shared<const Molecule>(
        gbpol::molgen::bound_complex(kFamilySizes[b], 7001 + static_cast<std::uint64_t>(b))));

  // The anchors, then whole blocks of kBlock requests with a fixed mix (and
  // fixed families and sizes per kind), shuffled by the seed: runs differ in
  // order and geometry, not in how much work of each kind they carry.
  constexpr std::size_t kBlock = 20;
  std::vector<Kind> block_kinds(12, Kind::kPose);
  block_kinds.insert(block_kinds.end(), {Kind::kFarPose, Kind::kRepeat, Kind::kRepeat,
                                         Kind::kRepeat, Kind::kRescore, Kind::kRescore,
                                         Kind::kRescore, Kind::kNew});
  const auto due = static_cast<std::size_t>(std::floor(seconds * w.arrival_rate));
  const std::size_t blocks =
      std::max<std::size_t>(1, (due - std::min<std::size_t>(due, kFamilies)) / kBlock);
  w.requests = kFamilies + blocks * kBlock;

  std::vector<Request> stream;
  stream.reserve(w.requests);
  std::uint64_t next_content = 0;
  for (int b = 0; b < kFamilies; ++b) {
    Request r;
    r.kind = Kind::kAnchor;
    r.family = b;
    r.mol = bases[static_cast<std::size_t>(b)];
    r.content = next_content++;
    stream.push_back(std::move(r));
  }
  std::map<std::pair<int, int>, std::uint64_t> rescore_content;
  Rng rng(mix(seed, 2));
  for (std::size_t block = 0; block < blocks; ++block) {
    std::vector<Kind> kinds = block_kinds;
    shuffle(kinds, rng);
    int poses = 0, rescores = 0;
    for (const Kind kind : kinds) {
      Request r;
      r.kind = kind;
      if (kind == Kind::kPose || kind == Kind::kFarPose) {
        // Within the skin: a flexible segment of the ligand moves by at most
        // ~0.12 A, so any two such poses stay within the 0.3 A skin of each
        // other. Beyond it: the whole ligand shifts 0.5-0.8 A, re-anchoring
        // its leaves (and again when the next pose returns near the anchor).
        const bool far = kind == Kind::kFarPose;
        const int b = far ? static_cast<int>(block % kFamilies) : poses++ % kFamilies;
        const Vec3 axis = random_unit(rng);
        const double angle = rng.uniform(0.0, 0.005);
        const Vec3 dir = random_unit(rng);
        const double shift = far ? rng.uniform(0.5, 0.8) : rng.uniform(0.0, 0.05);
        r.family = b;
        r.mol = std::make_shared<const Molecule>(
            move_tail(*bases[static_cast<std::size_t>(b)], far ? 0.25 : kSegment, axis,
                      angle, dir * shift));
        r.content = next_content++;
      } else if (kind == Kind::kRepeat) {
        // Exact repeat of an earlier request that was not itself a repeat.
        std::size_t j = rng.next_below(stream.size());
        while (stream[j].kind == Kind::kRepeat) j = rng.next_below(stream.size());
        r = stream[j];
        r.kind = Kind::kRepeat;
      } else if (kind == Kind::kRescore) {
        const int b = rescores++;
        int k = static_cast<int>(rng.next_below(32));
        if (k == 16) k = 32;  // 0.9 is the default: keep rescorings distinct
        r.family = b;
        r.mol = bases[static_cast<std::size_t>(b)];
        r.params.eps_epol = 0.5 + 0.025 * k;
        const auto key = std::make_pair(b, k);
        const auto it = rescore_content.find(key);
        r.content = it != rescore_content.end() ? it->second
                                                : (rescore_content[key] = next_content++);
      } else {
        r.family = static_cast<int>(kFamilies + stream.size());
        r.mol = std::make_shared<const Molecule>(gbpol::molgen::bound_complex(
            kNewSizes[block % std::size(kNewSizes)], mix(seed, 1000 + stream.size())));
        r.content = next_content++;
      }
      stream.push_back(std::move(r));
    }
  }
  auto shared = std::make_shared<const std::vector<Request>>(std::move(stream));
  w.request_at = [shared](std::size_t i) { return (*shared)[i]; };

  w.smallest.kind = Kind::kAnchor;
  w.smallest.family = 0;
  w.smallest.mol = bases[0];
  w.warmup = fixed_request(Kind::kWarmup, gbpol::molgen::bound_complex(2000, 7100),
                           ~std::uint64_t{0});
  return w;
}

// --- cmv_owned -----------------------------------------------------------

constexpr std::size_t kShellSizes[] = {15000, 18000, 21000, 24000, 27000, 30000};
constexpr std::size_t kShellLadder = std::size(kShellSizes);
constexpr double kCmvAtoms = 120000.0;  // molgen::cmv_like at scale 1
// One cycle of the six sizes takes ~3.75 s of serving on a 4-core x86-64-v3
// box.
constexpr double kCmvCycleSeconds = 3.75;

Workload cmv_owned(std::uint64_t seed, double seconds) {
  Workload w;
  w.name = "cmv_owned";
  w.latency_limit_s = 1.5;
  const int ranks = static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
  w.service.run = service_run(gbpol::distributed_options(ranks, 1));
  w.service.run.distribution = gbpol::DataDistribution::kOwned;
  w.service.run.balance = gbpol::BalancePolicy::kSteal;
  w.service.cache_budget_bytes = std::size_t{128} << 20;
  w.service.campaign_dir = kOff;
  w.surface = bench_surface();

  // Every ladder size once per cycle, in a seeded order, and runs end on a
  // cycle boundary, so each run sees the same size mix; every shell is
  // distinct.
  w.requests = whole_passes(seconds, kCmvCycleSeconds) * kShellLadder;
  w.request_at = [seed](std::size_t i) {
    std::vector<std::size_t> order(kShellLadder);
    for (std::size_t k = 0; k < kShellLadder; ++k) order[k] = k;
    Rng rng(mix(seed, 3 + i / kShellLadder));
    shuffle(order, rng);
    const std::size_t atoms = kShellSizes[order[i % kShellLadder]];
    Request r;
    r.kind = Kind::kShell;
    r.content = i;
    r.mol = std::make_shared<const Molecule>(gbpol::molgen::cmv_like(
        static_cast<double>(atoms) / kCmvAtoms, mix(seed, 100000 + i)));
    return r;
  };
  // The fixed-seed shell of the smallest ladder size warms the service and
  // carries the accuracy check.
  w.warmup = fixed_request(
      Kind::kWarmup,
      gbpol::molgen::cmv_like(static_cast<double>(kShellSizes[0]) / kCmvAtoms),
      ~std::uint64_t{0});
  w.smallest = w.warmup;
  return w;
}

}  // namespace

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kSuite: return "suite";
    case Kind::kShell: return "shell";
    case Kind::kWarmup: return "warmup";
    case Kind::kAnchor: return "anchor";
    case Kind::kPose: return "pose";
    case Kind::kFarPose: return "far_pose";
    case Kind::kRepeat: return "repeat";
    case Kind::kRescore: return "rescore";
    case Kind::kNew: return "new";
  }
  return "?";
}

gbpol::ServeRequest Workload::serve_request(const Request& request,
                                            const std::string& id) const {
  gbpol::ServeRequest out;
  out.id = id;
  out.mol = *request.mol;
  out.params = request.params;
  out.constants = constants;
  out.surface = surface;
  return out;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"zdock_hybrid", "docking_mix",
                                                 "cmv_owned"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed, double seconds) {
  if (name == "zdock_hybrid") return zdock_hybrid(seed, seconds);
  if (name == "docking_mix") return docking_mix(seed, seconds);
  if (name == "cmv_owned") return cmv_owned(seed, seconds);
  std::string message = "unknown workload ";
  message += name;
  throw std::invalid_argument(message);
}

}  // namespace perfbench
