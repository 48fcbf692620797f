// Skew-stress A/B of the cross-rank balance policies (DESIGN.md "Load
// balancing"): a bound complex plus distant sparse fragments yields leaves
// whose occupancy — and therefore modeled chunk cost — varies wildly, the
// regime where a static even split strands most ranks behind the one that
// drew the dense region. Runs kStatic (canonical fold), kCostModel and
// kSteal at 8 ranks, checks the three energies agree to the last bit, and
// writes bench_out/balance.json (schema-versioned RunResult documents plus
// the headline max-compute ratios).
//
// Acceptance target (ISSUE 5): kSteal improves the compute makespan
// (max over ranks of compute + straggler surplus) by >= 1.3x over kStatic.
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
    RunResult result;
  };
  std::vector<Entry> entries = {{"static", BalancePolicy::kStatic, {}},
                                {"cost_model", BalancePolicy::kCostModel, {}},
                                {"steal", BalancePolicy::kSteal, {}}};
  for (Entry& e : entries) {
    RunOptions options = distributed_options(ranks);
    options.balance = e.policy;         // identical fold for all three
    options.balance_chunk_leaves = 1;  // fine-grained chunks: room to steal
    e.result = engine.run(options);
  }

  // The 0-ulp contract is part of what this bench certifies: a speedup from
  // a policy that changed the answer would be worthless.
  const RunResult& baseline = entries[0].result;
  for (const Entry& e : entries)
    if (e.result.energy != baseline.energy) {
      std::fprintf(stderr, "FAIL: policy %s diverged: %.17g vs %.17g\n", e.name,
                   e.result.energy, baseline.energy);
      return 1;
    }

  Table table({"policy", "max compute(s)", "modeled(s)", "comm(s)",
               "migrated", "steal grants", "speedup vs static"});
  for (const Entry& e : entries)
    table.add_row(
        {e.name, Table::num(e.result.max_compute_seconds(), 4),
         Table::num(e.result.modeled_seconds(), 4),
         Table::num(e.result.comm_seconds, 5),
         Table::integer(static_cast<long long>(e.result.migrated_chunks)),
         Table::integer(static_cast<long long>(e.result.steal_grants)),
         Table::num(baseline.max_compute_seconds() / e.result.max_compute_seconds(),
                    3)});
  harness::emit_table(table, "balance_stress");

  // bench_out/balance.json: one schema-v1 RunResult document per policy plus
  // the headline ratios, in the same JSON dialect as metrics.json.
  obs::json::Object root;
  root.emplace_back("schema_version", obs::json::Value(1));
  root.emplace_back("ranks", obs::json::Value(ranks));
  root.emplace_back("atoms", obs::json::Value(static_cast<std::uint64_t>(pm.mol.size())));
  obs::json::Object runs;
  for (const Entry& e : entries)
    runs.emplace_back(e.name, run_result_to_json(e.result, e.name));
  root.emplace_back("runs", obs::json::Value(std::move(runs)));
  const double steal_speedup =
      baseline.max_compute_seconds() / entries[2].result.max_compute_seconds();
  root.emplace_back("cost_model_speedup",
                    obs::json::Value(baseline.max_compute_seconds() /
                                     entries[1].result.max_compute_seconds()));
  root.emplace_back("steal_speedup", obs::json::Value(steal_speedup));
  std::error_code ec;
  std::filesystem::create_directories("bench_out", ec);
  std::ofstream out("bench_out/balance.json");
  out << obs::json::Value(std::move(root)).dump() << '\n';
  out.close();
  std::printf("\nwrote bench_out/balance.json (steal speedup %.3fx)\n",
              steal_speedup);

  if (steal_speedup < 1.3) {
    std::fprintf(stderr, "FAIL: steal speedup %.3fx below the 1.3x target\n",
                 steal_speedup);
    return 1;
  }
  return 0;
}
