// Skew-stress A/B of the cross-rank balance policies (DESIGN.md "Load
// balancing"): a bound complex plus distant sparse fragments yields leaves
// whose occupancy — and therefore modeled chunk cost — varies wildly, the
// regime where a static even split strands most ranks behind the one that
// drew the dense region. Runs kStatic (canonical fold), kCostModel and
// kSteal at 8 ranks, checks the three energies agree to the last bit, and
// writes bench_out/balance.json (schema-versioned RunResult documents plus
// the headline max-compute ratios).
//
// Acceptance target: kSteal improves the compute makespan (max over ranks of
// compute + straggler surplus) by >= 1.3x over kStatic. One run per policy
// scatters by ~30% on a shared host, so the policies run kReps times,
// interleaved (static, cost_model, steal, then again), each rep's ratio is
// recorded, and the gate reads the median ratio.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "bench_common.hpp"

int main() {
  using namespace gbpol;
  using namespace gbpol::bench;

  harness::print_figure_header(
      "Balance", "Cross-rank balance policies on a skewed molecule (8 ranks)");
  // The skew: one dense bound complex surrounded by a halo of 700 tiny
  // fragments scattered over a much larger volume. The fragments outnumber
  // the core's leaves ~5:1, so most of the leaf-id space is near-trivial
  // work, while the core — pushed off-center so its leaves form ONE
  // contiguous run in the tree's DFS leaf order instead of straddling all
  // eight root octants — lands almost entirely inside a single rank's even-
  // split window. That is the layout a static split handles worst: one rank
  // owns nearly all the near-field work while its peers idle on thin leaves.
  Molecule mol = molgen::bound_complex(7000, 41001);
  mol.translate(Vec3{120, 120, 120});
  std::uint64_t lcg = 0x9E3779B97F4A7C15ull;
  const auto unit = [&lcg] {  // deterministic in [-1, 1)
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>(lcg >> 11) / 4503599627370496.0 - 1.0;
  };
  for (int f = 0; f < 700; ++f) {
    Molecule fragment =
        molgen::synthetic_protein(6, 41100 + static_cast<std::uint64_t>(f));
    fragment.translate(Vec3{220 * unit(), 220 * unit(), 220 * unit()});
    mol.append(fragment);
  }
  // Fat leaves (capacity 64) + coarse quadrature: near-field kernel work per
  // leaf grows with occupancy^2 while per-leaf traversal overhead stays
  // flat, and the coarse grid keeps the (evenly spread) Born quadrature
  // phase from diluting the atom-tree skew — together they make the real
  // compute kernel-dominated, the regime where occupancy skew matters.
  PreparedMolecule pm{std::move(mol), {}, {}};
  pm.quad = surface::molecular_surface_quadrature(
      pm.mol, {.grid_spacing = 6.0, .dunavant_degree = 1, .kappa = 2.3});
  pm.prep = Prepared::build(pm.mol, pm.quad, /*leaf_capacity=*/64);
  std::printf("molecule: %zu atoms (deliberately skewed layout)\n", pm.mol.size());

  const int ranks = 8;
  const ApproxParams params;
  const GBConstants constants;
  const Engine engine(pm.prep, params, constants);

  struct Entry {
    const char* name;
    BalancePolicy policy;
    RunResult result;             // the last rep's run
    std::vector<double> speedup;  // per rep: static max compute / this policy's
  };
  std::vector<Entry> entries = {{"static", BalancePolicy::kStatic, {}, {}},
                                {"cost_model", BalancePolicy::kCostModel, {}, {}},
                                {"steal", BalancePolicy::kSteal, {}, {}}};
  constexpr int kReps = 5;
  double reference_energy = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    for (Entry& e : entries) {
      RunOptions options = distributed_options(ranks);
      options.balance = e.policy;         // identical fold for all three
      options.balance_chunk_leaves = 1;  // fine-grained chunks: room to steal
      e.result = engine.run(options);
    }
    // The 0-ulp contract is part of what this bench certifies: a speedup
    // from a policy that changed the answer would be worthless. Every rep
    // must also repeat the first rep's energy.
    const RunResult& baseline = entries[0].result;
    if (rep == 0) reference_energy = baseline.energy;
    for (Entry& e : entries) {
      if (e.result.energy != reference_energy) {
        std::fprintf(stderr, "FAIL: rep %d: policy %s diverged: %.17g vs %.17g\n", rep,
                     e.name, e.result.energy, reference_energy);
        return 1;
      }
      e.speedup.push_back(baseline.max_compute_seconds() / e.result.max_compute_seconds());
    }
    std::printf("rep %d: steal speedup %.3fx, cost_model speedup %.3fx\n", rep,
                entries[2].speedup.back(), entries[1].speedup.back());
  }

  // Quartile q of xs by linear interpolation between order statistics.
  const auto quantile = [](std::vector<double> xs, double q) {
    std::sort(xs.begin(), xs.end());
    const double pos = q * static_cast<double>(xs.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, xs.size() - 1);
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
  };

  Table table({"policy", "max compute(s)", "modeled(s)", "comm(s)",
               "migrated", "steal grants", "median speedup vs static"});
  for (const Entry& e : entries)
    table.add_row(
        {e.name, Table::num(e.result.max_compute_seconds(), 4),
         Table::num(e.result.modeled_seconds(), 4),
         Table::num(e.result.comm_seconds, 5),
         Table::integer(static_cast<long long>(e.result.migrated_chunks)),
         Table::integer(static_cast<long long>(e.result.steal_grants)),
         Table::num(quantile(e.speedup, 0.5), 3)});
  harness::emit_table(table, "balance_stress");

  // bench_out/balance.json: one schema-v1 RunResult document per policy (its
  // last rep) plus every rep's ratios and their median and quartiles, in the
  // same JSON dialect as metrics.json.
  obs::json::Object root;
  root.emplace_back("schema_version", obs::json::Value(1));
  root.emplace_back("ranks", obs::json::Value(ranks));
  root.emplace_back("atoms", obs::json::Value(static_cast<std::uint64_t>(pm.mol.size())));
  root.emplace_back("reps", obs::json::Value(kReps));
  obs::json::Object runs;
  for (const Entry& e : entries)
    runs.emplace_back(e.name, run_result_to_json(e.result, e.name));
  root.emplace_back("runs", obs::json::Value(std::move(runs)));
  for (const Entry& e : entries) {
    if (e.policy == BalancePolicy::kStatic) continue;
    const std::string key = std::string(e.name) + "_speedup";
    obs::json::Array reps;
    for (double r : e.speedup) reps.emplace_back(r);
    root.emplace_back(key + "_reps", obs::json::Value(std::move(reps)));
    root.emplace_back(key, obs::json::Value(quantile(e.speedup, 0.5)));
    root.emplace_back(key + "_q1", obs::json::Value(quantile(e.speedup, 0.25)));
    root.emplace_back(key + "_q3", obs::json::Value(quantile(e.speedup, 0.75)));
  }
  const std::vector<double>& steal = entries[2].speedup;
  const double steal_speedup = quantile(steal, 0.5);
  std::error_code ec;
  std::filesystem::create_directories("bench_out", ec);
  std::ofstream out("bench_out/balance.json");
  out << obs::json::Value(std::move(root)).dump() << '\n';
  out.close();
  std::printf("\nwrote bench_out/balance.json (steal speedup median %.3fx, quartiles "
              "[%.3f, %.3f] over %d reps)\n",
              steal_speedup, quantile(steal, 0.25), quantile(steal, 0.75), kReps);

  if (steal_speedup < 1.3) {
    std::fprintf(stderr, "FAIL: median steal speedup %.3fx below the 1.3x target\n",
                 steal_speedup);
    return 1;
  }
  return 0;
}
