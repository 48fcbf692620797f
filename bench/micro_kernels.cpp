// Micro-benchmarks (google-benchmark): the building-block costs underneath
// the figure benches — octree construction/traversal, scheduler overhead,
// collectives, math kernels, surface density evaluation, and the near-field
// kernel A/B (scalar AoS recursion baseline vs batched SoA, the
// TraversalMode::kList default). Besides the google-benchmark console
// output, main() writes a machine-readable summary of the kernel A/B to
// bench_out/micro_kernels.json.
#include <benchmark/benchmark.h>

#include <array>
#include <chrono>
#include <functional>
#include <filesystem>
#include <fstream>

#include "core/approx_math.hpp"
#include "core/born_octree.hpp"
#include "core/drivers.hpp"
#include "core/epol_octree.hpp"
#include "core/interaction_lists.hpp"
#include "core/kernels_simd.hpp"
#include "molecule/generate.hpp"
#include "mpisim/runtime.hpp"
#include "support/morton.hpp"
#include "support/rng.hpp"
#include "surface/density.hpp"
#include "surface/quadrature.hpp"
#include "ws/parallel_for.hpp"

namespace {

using namespace gbpol;

// Shared molecule + prebuilt interaction lists for the near-kernel A/B
// benches and the JSON summary (built once, on first use).
struct ListFixture {
  Prepared prep;
  std::vector<double> born_sorted;
  InteractionLists born_lists;  // (atom node x q leaf), Fig. 2 decomposition
  InteractionLists epol_lists;  // (atom node x atom leaf), Fig. 3
  std::uint64_t epol_near_pairs = 0;
};

const ListFixture& list_fixture() {
  static const ListFixture* fixture = [] {
    auto* f = new ListFixture();
    const Molecule mol = molgen::synthetic_protein(6000, 3);
    const auto quad = surface::molecular_surface_quadrature(
        mol, {.grid_spacing = 2.0, .dunavant_degree = 1, .kappa = 2.3});
    f->prep = Prepared::build(mol, quad, 32);
    ApproxParams params;
    const BornSolver born_solver(f->prep, params);
    const auto n_qleaves = static_cast<std::uint32_t>(f->prep.q_tree.leaves().size());
    f->born_lists = born_solver.build_lists(0, n_qleaves);
    BornAccumulator acc = born_solver.make_accumulator();
    born_solver.accumulate_lists(f->born_lists, acc);
    f->born_sorted.resize(f->prep.num_atoms());
    born_solver.push_to_atoms(acc, 0, static_cast<std::uint32_t>(f->prep.num_atoms()),
                              f->born_sorted);
    const EpolSolver epol_solver(f->prep, f->born_sorted, params, GBConstants{});
    const auto n_aleaves =
        static_cast<std::uint32_t>(f->prep.atoms_tree.leaves().size());
    f->epol_lists = epol_solver.build_lists(0, n_aleaves);
    f->epol_near_pairs = f->epol_lists.near_point_pairs;
    return f;
  }();
  return *fixture;
}

// One sweep over the Born near list with the scalar AoS kernel (the seed's
// recursive inner loop).
double born_near_sweep_aos(const ListFixture& f, std::vector<double>& atom_s) {
  const Prepared& prep = f.prep;
  for (const InteractionLists::Near& e : f.born_lists.near) {
    const OctreeNode& a = prep.atoms_tree.node(e.target_leaf);
    const OctreeNode& q = prep.q_tree.node(e.source_leaf);
    born_near_aos<6>(prep.atoms_tree.points().data(), a.begin, a.end,
                     prep.q_tree.points().data(), prep.weighted_normal.data(), q.begin,
                     q.end, atom_s.data());
  }
  return atom_s[0];
}

// Same sweep with the batched SoA kernel.
double born_near_sweep_soa(const ListFixture& f, std::vector<double>& atom_s) {
  const Prepared& prep = f.prep;
  for (const InteractionLists::Near& e : f.born_lists.near) {
    const OctreeNode& a = prep.atoms_tree.node(e.target_leaf);
    const OctreeNode& q = prep.q_tree.node(e.source_leaf);
    born_near_soa<6>(prep.q_soa.x.data(), prep.q_soa.y.data(), prep.q_soa.z.data(),
                     prep.q_wn_soa.x.data(), prep.q_wn_soa.y.data(),
                     prep.q_wn_soa.z.data(), q.begin, q.end, prep.atoms_soa.x.data(),
                     prep.atoms_soa.y.data(), prep.atoms_soa.z.data(), a.begin, a.end,
                     atom_s.data());
  }
  return atom_s[0];
}

template <bool kApproxMath>
double epol_near_sweep_aos(const ListFixture& f) {
  const Prepared& prep = f.prep;
  double sum = 0.0;
  for (const InteractionLists::Near& e : f.epol_lists.near) {
    const OctreeNode& u = prep.atoms_tree.node(e.target_leaf);
    const OctreeNode& v = prep.atoms_tree.node(e.source_leaf);
    sum += epol_near_aos<kApproxMath>(prep.atoms_tree.points().data(),
                                      prep.charge.data(), f.born_sorted.data(), u.begin,
                                      u.end, v.begin, v.end);
  }
  return sum;
}

template <bool kApproxMath>
double epol_near_sweep_soa(const ListFixture& f) {
  const Prepared& prep = f.prep;
  double sum = 0.0;
  for (const InteractionLists::Near& e : f.epol_lists.near) {
    const OctreeNode& u = prep.atoms_tree.node(e.target_leaf);
    const OctreeNode& v = prep.atoms_tree.node(e.source_leaf);
    sum += epol_near_soa<kApproxMath>(prep.atoms_soa.x.data(), prep.atoms_soa.y.data(),
                                      prep.atoms_soa.z.data(), prep.charge.data(),
                                      f.born_sorted.data(), u.begin, u.end, v.begin,
                                      v.end);
  }
  return sum;
}

// Same sweeps through a SIMD kernel table (the dispatched one, or one tier's
// for the per-tier ratios). Callers must pass a non-null table.
double born_near_sweep_simd(const ListFixture& f, std::vector<double>& atom_s,
                            const SimdKernelTable* t) {
  const Prepared& prep = f.prep;
  for (const InteractionLists::Near& e : f.born_lists.near) {
    const OctreeNode& a = prep.atoms_tree.node(e.target_leaf);
    const OctreeNode& q = prep.q_tree.node(e.source_leaf);
    t->born_near_r6(prep.q_soa.x.data(), prep.q_soa.y.data(), prep.q_soa.z.data(),
                    prep.q_wn_soa.x.data(), prep.q_wn_soa.y.data(),
                    prep.q_wn_soa.z.data(), q.begin, q.end, prep.atoms_soa.x.data(),
                    prep.atoms_soa.y.data(), prep.atoms_soa.z.data(), a.begin, a.end,
                    atom_s.data());
  }
  return atom_s[0];
}

template <bool kApproxMath>
double epol_near_sweep_simd(const ListFixture& f, const SimdKernelTable* t) {
  const Prepared& prep = f.prep;
  const auto fn = kApproxMath ? t->epol_near_approx : t->epol_near_exact;
  double sum = 0.0;
  for (const InteractionLists::Near& e : f.epol_lists.near) {
    const OctreeNode& u = prep.atoms_tree.node(e.target_leaf);
    const OctreeNode& v = prep.atoms_tree.node(e.source_leaf);
    sum += fn(prep.atoms_soa.x.data(), prep.atoms_soa.y.data(),
              prep.atoms_soa.z.data(), prep.charge.data(), f.born_sorted.data(),
              u.begin, u.end, v.begin, v.end);
  }
  return sum;
}

std::vector<Vec3> random_points(std::size_t n) {
  Rng rng(123);
  std::vector<Vec3> pts(n);
  for (Vec3& p : pts)
    p = Vec3{rng.uniform(0, 100), rng.uniform(0, 100), rng.uniform(0, 100)};
  return pts;
}

void BM_MortonEncode(benchmark::State& state) {
  const auto pts = random_points(static_cast<std::size_t>(state.range(0)));
  const Aabb box = bounding_box(pts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(morton::encode_points(pts, box));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MortonEncode)->Arg(1 << 12)->Arg(1 << 16);

void BM_OctreeBuild(benchmark::State& state) {
  const auto pts = random_points(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Octree::build(pts, {.leaf_capacity = 32, .max_depth = 20, .domain = {}}));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_OctreeBuild)->Arg(1 << 12)->Arg(1 << 15)->Arg(1 << 17);

void BM_FastRsqrt(benchmark::State& state) {
  Rng rng(5);
  std::vector<double> xs(4096);
  for (double& x : xs) x = rng.uniform(1.0, 1e6);
  for (auto _ : state) {
    double sum = 0.0;
    for (const double x : xs) sum += fast_rsqrt(x);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_FastRsqrt);

void BM_ExactRsqrt(benchmark::State& state) {
  Rng rng(5);
  std::vector<double> xs(4096);
  for (double& x : xs) x = rng.uniform(1.0, 1e6);
  for (auto _ : state) {
    double sum = 0.0;
    for (const double x : xs) sum += 1.0 / std::sqrt(x);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_ExactRsqrt);

void BM_FastExp(benchmark::State& state) {
  Rng rng(6);
  std::vector<double> xs(4096);
  for (double& x : xs) x = rng.uniform(-40.0, 0.0);
  for (auto _ : state) {
    double sum = 0.0;
    for (const double x : xs) sum += fast_exp(x);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_FastExp);

void BM_ExactExp(benchmark::State& state) {
  Rng rng(6);
  std::vector<double> xs(4096);
  for (double& x : xs) x = rng.uniform(-40.0, 0.0);
  for (auto _ : state) {
    double sum = 0.0;
    for (const double x : xs) sum += std::exp(x);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_ExactExp);

void BM_SchedulerSpawnSync(benchmark::State& state) {
  ws::Scheduler sched(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    std::atomic<long> sum{0};
    ws::parallel_for(sched, 0, 10000, 16, [&](std::size_t lo, std::size_t hi) {
      sum.fetch_add(static_cast<long>(hi - lo), std::memory_order_relaxed);
    });
    benchmark::DoNotOptimize(sum.load());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SchedulerSpawnSync)->Arg(2)->Arg(6);

void BM_MpisimAllreduce(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    mpisim::Runtime::Config config;
    config.ranks = ranks;
    mpisim::Runtime::run(config, [&](mpisim::Comm& comm) {
      std::vector<double> data(1 << 12, 1.0);
      comm.allreduce_sum(data);
      benchmark::DoNotOptimize(data[0]);
    });
  }
}
BENCHMARK(BM_MpisimAllreduce)->Arg(2)->Arg(8);

void BM_DensityEval(benchmark::State& state) {
  const Molecule mol = molgen::synthetic_protein(5000, 9);
  const surface::DensityField field(mol);
  Rng rng(7);
  const Aabb dom = field.domain();
  std::vector<Vec3> queries(1024);
  for (Vec3& q : queries)
    q = Vec3{rng.uniform(dom.lo.x, dom.hi.x), rng.uniform(dom.lo.y, dom.hi.y),
             rng.uniform(dom.lo.z, dom.hi.z)};
  for (auto _ : state) {
    double sum = 0.0;
    for (const Vec3& q : queries) sum += field.value(q);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_DensityEval);

void BM_BornTraversal(benchmark::State& state) {
  const Molecule mol = molgen::synthetic_protein(static_cast<std::size_t>(state.range(0)), 3);
  const auto quad = surface::molecular_surface_quadrature(
      mol, {.grid_spacing = 2.0, .dunavant_degree = 1, .kappa = 2.3});
  const Prepared prep = Prepared::build(mol, quad, 32);
  ApproxParams params;
  const BornSolver solver(prep, params);
  const auto n_leaves = static_cast<std::uint32_t>(prep.q_tree.leaves().size());
  for (auto _ : state) {
    BornAccumulator acc = solver.make_accumulator();
    solver.accumulate_qleaf_range(0, n_leaves, acc);
    benchmark::DoNotOptimize(acc.flat().data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BornTraversal)->Arg(2000)->Arg(8000);

// ---- Near-field kernel A/B: scalar AoS baseline vs batched SoA ------------

void BM_BornNearAoS(benchmark::State& state) {
  const ListFixture& f = list_fixture();
  std::vector<double> atom_s(f.prep.num_atoms(), 0.0);
  for (auto _ : state) benchmark::DoNotOptimize(born_near_sweep_aos(f, atom_s));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.born_lists.near_point_pairs));
}
BENCHMARK(BM_BornNearAoS);

void BM_BornNearSoA(benchmark::State& state) {
  const ListFixture& f = list_fixture();
  std::vector<double> atom_s(f.prep.num_atoms(), 0.0);
  for (auto _ : state) benchmark::DoNotOptimize(born_near_sweep_soa(f, atom_s));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.born_lists.near_point_pairs));
}
BENCHMARK(BM_BornNearSoA);

void BM_EpolNearAoS(benchmark::State& state) {
  const ListFixture& f = list_fixture();
  for (auto _ : state) benchmark::DoNotOptimize(epol_near_sweep_aos<false>(f));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.epol_near_pairs));
}
BENCHMARK(BM_EpolNearAoS);

void BM_EpolNearSoA(benchmark::State& state) {
  const ListFixture& f = list_fixture();
  for (auto _ : state) benchmark::DoNotOptimize(epol_near_sweep_soa<false>(f));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.epol_near_pairs));
}
BENCHMARK(BM_EpolNearSoA);

void BM_BornNearSimd(benchmark::State& state) {
  if (simd_kernel_table() == nullptr) {
    state.SkipWithError("SIMD dispatch inactive");
    return;
  }
  const ListFixture& f = list_fixture();
  std::vector<double> atom_s(f.prep.num_atoms(), 0.0);
  for (auto _ : state)
    benchmark::DoNotOptimize(born_near_sweep_simd(f, atom_s, simd_kernel_table()));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.born_lists.near_point_pairs));
}
BENCHMARK(BM_BornNearSimd);

void BM_EpolNearSimd(benchmark::State& state) {
  if (simd_kernel_table() == nullptr) {
    state.SkipWithError("SIMD dispatch inactive");
    return;
  }
  const ListFixture& f = list_fixture();
  for (auto _ : state)
    benchmark::DoNotOptimize(epol_near_sweep_simd<false>(f, simd_kernel_table()));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.epol_near_pairs));
}
BENCHMARK(BM_EpolNearSimd);

// ---- Engine-level A/B: recursive walk vs prebuilt-list evaluation ---------

void BM_BornListBuild(benchmark::State& state) {
  const ListFixture& f = list_fixture();
  ApproxParams params;
  const BornSolver solver(f.prep, params);
  const auto n = static_cast<std::uint32_t>(f.prep.q_tree.leaves().size());
  for (auto _ : state) benchmark::DoNotOptimize(solver.build_lists(0, n));
}
BENCHMARK(BM_BornListBuild);

void BM_BornListAccumulate(benchmark::State& state) {
  const ListFixture& f = list_fixture();
  ApproxParams params;
  const BornSolver solver(f.prep, params);
  for (auto _ : state) {
    BornAccumulator acc = solver.make_accumulator();
    solver.accumulate_lists(f.born_lists, acc);
    benchmark::DoNotOptimize(acc.flat().data());
  }
}
BENCHMARK(BM_BornListAccumulate);

void BM_BornRecursiveAccumulate(benchmark::State& state) {
  const ListFixture& f = list_fixture();
  ApproxParams params;
  const BornSolver solver(f.prep, params);
  const auto n = static_cast<std::uint32_t>(f.prep.q_tree.leaves().size());
  for (auto _ : state) {
    BornAccumulator acc = solver.make_accumulator();
    solver.accumulate_qleaf_range(0, n, acc);
    benchmark::DoNotOptimize(acc.flat().data());
  }
}
BENCHMARK(BM_BornRecursiveAccumulate);

// ---- bench_out/micro_kernels.json -----------------------------------------

// Best-of-reps wall time of fn(), seconds.
template <typename F>
double best_seconds(int reps, F&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(fn());
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

// Interleaved best-of-reps for a set of variants of the same kernel: each
// rep times every variant back to back, so a frequency or steal-time drift
// on a shared core hits all variants alike instead of biasing whichever one
// happened to run during the slow window (the gate compares their ratio).
template <std::size_t N>
std::array<double, N> best_seconds_interleaved(
    int reps, const std::array<std::function<double()>, N>& fns) {
  std::array<double, N> best;
  best.fill(1e300);
  for (int r = 0; r < reps; ++r) {
    for (std::size_t i = 0; i < N; ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(fns[i]());
      const auto t1 = std::chrono::steady_clock::now();
      best[i] = std::min(best[i], std::chrono::duration<double>(t1 - t0).count());
    }
  }
  return best;
}

// The SIMD tiers timed one by one, whatever the dispatch picked.
constexpr SimdDispatch kTiers[] = {SimdDispatch::kAvx2, SimdDispatch::kAvx512};
constexpr std::size_t kNumTiers = std::size(kTiers);

struct KernelAB {
  const char* name;
  std::uint64_t pairs;
  double scalar_s;
  double soa_s;
  double simd_s = 0.0;  // dispatched tier; 0 when the SIMD dispatch is inactive
  bool gated = false;   // participates in the >= 2x SIMD-vs-SoA check
  std::array<double, kNumTiers> tier_s{};  // per kTiers entry; 0 = unavailable
};

// Minimum dispatched-SIMD-vs-SoA speedup for gated kernels; scripts/check.sh
// runs this binary and fails the push when the gate breaks. Only
// epol_near_exact is gated: its SoA form is serialized on scalar libm calls,
// which is exactly what the explicit kernels exist to fix. The Born kernel
// already autovectorizes under -march=x86-64-v3, so its SIMD ratio is
// recorded but not gated.
constexpr double kSimdGateSpeedup = 2.0;

void write_json(std::ostream& os, const ListFixture& f,
                const std::vector<KernelAB>& kernels, bool gate_pass) {
  os << "{\n";
  os << "  \"molecule_atoms\": " << f.prep.num_atoms() << ",\n";
  os << "  \"quadrature_points\": " << f.prep.q_tree.num_points() << ",\n";
  os << "  \"dispatch_path\": \"" << simd_dispatch_name() << "\",\n";
  os << "  \"tile_bytes\": " << default_tile_bytes() << ",\n";
  os << "  \"simd_gate\": {\"required_speedup\": " << kSimdGateSpeedup
     << ", \"active\": " << (simd_kernel_table() != nullptr ? "true" : "false")
     << ", \"pass\": " << (gate_pass ? "true" : "false") << "},\n";
  os << "  \"kernels\": [\n";
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    const KernelAB& k = kernels[i];
    const double pairs = static_cast<double>(k.pairs);
    os << "    {\"name\": \"" << k.name << "\", \"point_pairs\": " << k.pairs
       << ", \"scalar_aos_seconds\": " << k.scalar_s
       << ", \"soa_seconds\": " << k.soa_s
       << ", \"scalar_aos_pairs_per_second\": " << pairs / k.scalar_s
       << ", \"soa_pairs_per_second\": " << pairs / k.soa_s
       << ", \"soa_speedup\": " << k.scalar_s / k.soa_s;
    if (k.simd_s > 0.0) {
      os << ", \"simd_seconds\": " << k.simd_s
         << ", \"simd_pairs_per_second\": " << pairs / k.simd_s
         << ", \"simd_vs_soa_speedup\": " << k.soa_s / k.simd_s
         << ", \"gated\": " << (k.gated ? "true" : "false");
    }
    os << ", \"tiers\": {";
    bool first = true;
    for (std::size_t t = 0; t < kNumTiers; ++t) {
      if (k.tier_s[t] <= 0.0) continue;
      os << (first ? "" : ", ") << "\"" << simd_dispatch_name(kTiers[t])
         << "\": {\"seconds\": " << k.tier_s[t]
         << ", \"vs_soa_speedup\": " << k.soa_s / k.tier_s[t] << "}";
      first = false;
    }
    os << "}";
    os << "}" << (i + 1 < kernels.size() ? "," : "") << "\n";
  }
  os << "  ]\n";
  os << "}\n";
}

// Times the scalar-AoS vs batched-SoA vs each available SIMD tier's near
// kernels over the molecule's real near lists, writes the comparison to
// bench_out/micro_kernels.json, and returns false when a gated kernel misses
// the >= 2x SIMD-vs-SoA target on the dispatched tier (self-gate used by
// scripts/check.sh).
bool emit_kernel_json() {
  const ListFixture& f = list_fixture();
  constexpr int kReps = 7;
  const bool simd_active = simd_kernel_table() != nullptr;
  std::vector<double> atom_s(f.prep.num_atoms(), 0.0);

  // Each kernel's variants are timed interleaved (scalar, SoA, then every
  // tier back to back per rep) so shared-core noise cancels out of the
  // ratios. `simd_fn(table)` runs the sweep through one tier's table.
  using SweepFn = std::function<double(const SimdKernelTable*)>;
  const auto measure = [&](const char* name, std::uint64_t pairs, bool gated,
                           std::function<double()> scalar_fn,
                           std::function<double()> soa_fn, const SweepFn& simd_fn) {
    std::array<std::function<double()>, 2 + kNumTiers> fns{std::move(scalar_fn),
                                                           std::move(soa_fn)};
    for (std::size_t i = 0; i < kNumTiers; ++i) {
      const SimdKernelTable* table = simd_tier_available(kTiers[i])
                                         ? simd_kernel_table(kTiers[i])
                                         : nullptr;
      fns[2 + i] = table != nullptr ? std::function<double()>([=] { return simd_fn(table); })
                                    : std::function<double()>([] { return 0.0; });
    }
    const auto t = best_seconds_interleaved<2 + kNumTiers>(kReps, fns);
    KernelAB k{name, pairs, t[0], t[1], 0.0, gated, {}};
    for (std::size_t i = 0; i < kNumTiers; ++i) {
      if (!simd_tier_available(kTiers[i])) continue;
      k.tier_s[i] = t[2 + i];
      if (simd_active && kTiers[i] == simd_dispatch()) k.simd_s = t[2 + i];
    }
    return k;
  };

  std::vector<KernelAB> kernels;
  kernels.push_back(measure(
      "born_near_r6", f.born_lists.near_point_pairs, /*gated=*/false,
      [&] { return born_near_sweep_aos(f, atom_s); },
      [&] { return born_near_sweep_soa(f, atom_s); },
      [&](const SimdKernelTable* t) { return born_near_sweep_simd(f, atom_s, t); }));
  kernels.push_back(measure(
      "epol_near_exact", f.epol_near_pairs, /*gated=*/true,
      [&] { return epol_near_sweep_aos<false>(f); },
      [&] { return epol_near_sweep_soa<false>(f); },
      [&](const SimdKernelTable* t) { return epol_near_sweep_simd<false>(f, t); }));
  kernels.push_back(measure(
      "epol_near_approx_math", f.epol_near_pairs, /*gated=*/false,
      [&] { return epol_near_sweep_aos<true>(f); },
      [&] { return epol_near_sweep_soa<true>(f); },
      [&](const SimdKernelTable* t) { return epol_near_sweep_simd<true>(f, t); }));

  bool gate_pass = true;
  if (simd_active) {
    for (const KernelAB& k : kernels)
      if (k.gated && k.soa_s / k.simd_s < kSimdGateSpeedup) gate_pass = false;
  }

  std::error_code ec;
  std::filesystem::create_directories("bench_out", ec);
  std::ofstream out("bench_out/micro_kernels.json");
  if (!out) {
    std::fprintf(stderr, "note: could not open bench_out/micro_kernels.json\n");
    return gate_pass;
  }
  write_json(out, f, kernels, gate_pass);
  std::printf("wrote bench_out/micro_kernels.json (dispatch: %s)\n",
              simd_dispatch_name());
  for (const KernelAB& k : kernels) {
    if (k.simd_s > 0.0)
      std::printf("  %-22s SoA speedup %.2fx, SIMD vs SoA %.2fx%s", k.name,
                  k.scalar_s / k.soa_s, k.soa_s / k.simd_s, k.gated ? " [gated]" : "");
    else
      std::printf("  %-22s SoA speedup %.2fx", k.name, k.scalar_s / k.soa_s);
    for (std::size_t t = 0; t < kNumTiers; ++t)
      if (k.tier_s[t] > 0.0)
        std::printf(" | %s %.2fx", simd_dispatch_name(kTiers[t]), k.soa_s / k.tier_s[t]);
    std::printf("\n");
  }
  if (simd_active && !gate_pass)
    std::fprintf(stderr,
                 "micro_kernels: FAIL — gated SIMD kernel below %.1fx vs SoA\n",
                 kSimdGateSpeedup);
  else if (!simd_active)
    std::printf("micro_kernels: SIMD gate skipped (dispatch inactive: %s)\n",
                simd_dispatch_name());
  return gate_pass;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return emit_kernel_json() ? 0 : 1;
}
