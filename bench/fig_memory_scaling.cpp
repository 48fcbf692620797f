// Memory-scaling figure for the owned-mode domain decomposition (DESIGN.md
// "Domain decomposition & halo exchange"): per-rank modeled bytes at
// P = 1, 2, 4, 8 against the replicated layout on a >= 50k-point molecule.
// The owned side includes its halo and the node-scale structures that stay
// replicated by design (tree nodes, far-field bin store), so the curve
// flattens toward that floor instead of 1/P.
//
// Writes bench_out/memory_scaling.json and self-gates the ISSUE 7
// acceptance target: at 8 ranks the largest rank's owned footprint must be
// <= 0.35x the replicated per-rank footprint. Every point also re-certifies
// the 0-ulp contract against the replicated canonical answer — a memory win
// that changed the bits would be worthless.
#include <filesystem>
#include <fstream>
#include <iostream>

#include "bench_common.hpp"

int main() {
  using namespace gbpol;
  using namespace gbpol::bench;

  harness::print_figure_header(
      "Memory", "Owned-mode per-rank footprint vs replicated (P = 1..8)");
  // Fine quadrature (the tests' grid, not the coarse bench grid) so the
  // molecule lands well above the 50k-point floor the acceptance target is
  // stated for; leaf capacity 16 matches the golden-equivalence battery.
  Molecule mol = molgen::synthetic_protein(3000, 23);
  PreparedMolecule pm{std::move(mol), {}, {}};
  pm.quad = surface::molecular_surface_quadrature(
      pm.mol, {.grid_spacing = 1.5, .dunavant_degree = 2, .kappa = 2.3});
  pm.prep = Prepared::build(pm.mol, pm.quad, /*leaf_capacity=*/16);
  const std::size_t points = pm.prep.num_atoms() + pm.prep.q_tree.num_points();
  std::printf("molecule: %zu atoms, %zu total points\n", pm.mol.size(), points);
  if (points < 50000) {
    std::fprintf(stderr, "FAIL: %zu points below the 50k scaling regime\n",
                 points);
    return 1;
  }

  const ApproxParams params;
  const GBConstants constants;
  const Engine engine(pm.prep, params, constants);

  struct Point {
    int ranks;
    RunResult result;
    double ratio;
  };
  std::vector<Point> points_out;
  double ratio_at_8 = 0.0;
  for (const int ranks : {1, 2, 4, 8}) {
    // The replicated twin at the SAME rank count: the canonical chunk plan
    // is a function of the rank count, so the 0-ulp contract is stated
    // against the same-P replicated fold.
    const RunResult baseline = engine.run(distributed_options(ranks));

    RunOptions options = distributed_options(ranks);
    options.distribution = DataDistribution::kOwned;
    RunResult owned = engine.run(options);
    if (owned.owned_bytes_per_rank == 0 || owned.replicated_bytes == 0) {
      std::fprintf(stderr, "FAIL: owned routing did not engage at P=%d\n",
                   ranks);
      return 1;
    }
    if (owned.energy != baseline.energy) {
      std::fprintf(stderr, "FAIL: owned P=%d diverged: %.17g vs %.17g\n", ranks,
                   owned.energy, baseline.energy);
      return 1;
    }
    const double replicated_per_rank =
        static_cast<double>(owned.replicated_bytes) / ranks;
    const double ratio =
        static_cast<double>(owned.owned_bytes_per_rank) / replicated_per_rank;
    if (ranks == 8) ratio_at_8 = ratio;
    points_out.push_back({ranks, std::move(owned), ratio});
  }

  Table table({"ranks", "owned max rank (MiB)", "replicated rank (MiB)",
               "halo (MiB)", "ratio"});
  for (const Point& p : points_out) {
    const double mib = 1024.0 * 1024.0;
    table.add_row(
        {Table::integer(p.ranks),
         Table::num(static_cast<double>(p.result.owned_bytes_per_rank) / mib, 3),
         Table::num(static_cast<double>(p.result.replicated_bytes) / p.ranks / mib,
                    3),
         Table::num(static_cast<double>(p.result.owned_halo_bytes) / mib, 3),
         Table::num(p.ratio, 4)});
  }
  harness::emit_table(table, "memory_scaling");

  obs::json::Object root;
  root.emplace_back("schema_version", obs::json::Value(1));
  root.emplace_back("atoms",
                    obs::json::Value(static_cast<std::uint64_t>(pm.mol.size())));
  root.emplace_back("total_points",
                    obs::json::Value(static_cast<std::uint64_t>(points)));
  obs::json::Array curve;
  for (const Point& p : points_out) {
    obs::json::Object o;
    o.emplace_back("ranks", obs::json::Value(p.ranks));
    o.emplace_back("owned_bytes_per_rank",
                   obs::json::Value(
                       static_cast<std::uint64_t>(p.result.owned_bytes_per_rank)));
    o.emplace_back("owned_halo_bytes",
                   obs::json::Value(
                       static_cast<std::uint64_t>(p.result.owned_halo_bytes)));
    o.emplace_back("replicated_bytes_total",
                   obs::json::Value(
                       static_cast<std::uint64_t>(p.result.replicated_bytes)));
    o.emplace_back("ratio_vs_replicated_rank", obs::json::Value(p.ratio));
    curve.push_back(obs::json::Value(std::move(o)));
  }
  root.emplace_back("curve", obs::json::Value(std::move(curve)));
  root.emplace_back("ratio_at_8_ranks", obs::json::Value(ratio_at_8));
  std::error_code ec;
  std::filesystem::create_directories("bench_out", ec);
  std::ofstream out("bench_out/memory_scaling.json");
  out << obs::json::Value(std::move(root)).dump() << '\n';
  out.close();
  std::printf("\nwrote bench_out/memory_scaling.json (ratio at 8 ranks %.4f)\n",
              ratio_at_8);

  if (ratio_at_8 > 0.35) {
    std::fprintf(stderr, "FAIL: 8-rank ratio %.4f above the 0.35 target\n",
                 ratio_at_8);
    return 1;
  }
  return 0;
}
