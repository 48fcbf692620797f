// Fig. 5: speedup vs running time on one node — OCT_MPI and OCT_MPI+CILK on
// the BTV substitute across increasing core counts of the modeled cluster;
// speedup is relative to each variant's 12-core (one node) run, as in the
// paper. Also reports the replicated-memory gap (§V-B: 8.2 GB vs 1.4 GB on
// BTV at one node — a 5.86x ratio).
#include <iostream>

#include "bench_common.hpp"
#include "core/drivers.hpp"

int main() {
  using namespace gbpol;
  using namespace gbpol::bench;

  harness::print_figure_header("Fig. 5", "Speedup with increasing cores (BTV substitute)");
  const double scale = harness::env_scale();
  const Molecule btv = molgen::btv_like(0.5 * scale);  // default 120k atoms
  std::printf("molecule: %s (%zu atoms; paper BTV: 6M atoms)\n", btv.name().c_str(),
              btv.size());
  const PreparedMolecule pm = prepare(btv.name() == "" ? btv : btv, 48);
  std::printf("quadrature points: %zu; octree build %.2f s\n", pm.quad.size(),
              pm.prep.build_seconds);

  const GBConstants constants;
  const mpisim::ClusterModel cluster = mpisim::ClusterModel::lonestar4();

  Table table({"cores", "variant", "modeled(s)", "speedup vs 12", "memory(MiB)",
               "E_pol"});
  BenchMetrics metrics("fig5_speedup");
  const ApproxParams params;  // 0.9/0.9
  const Engine engine(pm.prep, params, constants);
  double base_mpi = 0.0, base_hybrid = 0.0;
  for (const int cores : {12, 24, 48, 96, 144}) {
    RunOptions mpi;
    mpi.mode = EngineMode::kDistributed;
    mpi.ranks = cores;
    mpi.cluster = cluster;
    const RunResult a = metrics.traced(
        std::string("OCT_MPI list cores=") + std::to_string(cores),
        [&] { return engine.run(mpi); });
    if (cores == 12) base_mpi = a.modeled_seconds();
    table.add_row({Table::integer(cores), "OCT_MPI", Table::num(a.modeled_seconds(), 4),
                   Table::num(base_mpi / a.modeled_seconds(), 3),
                   Table::num(static_cast<double>(a.replicated_bytes) / (1 << 20), 4),
                   Table::num(a.energy, 6)});

    RunOptions hybrid = mpi;
    hybrid.ranks = cores / 6;
    hybrid.threads_per_rank = 6;
    const RunResult b = metrics.traced(
        std::string("OCT_MPI+CILK list cores=") + std::to_string(cores),
        [&] { return engine.run(hybrid); });
    if (cores == 12) base_hybrid = b.modeled_seconds();
    table.add_row({Table::integer(cores), "OCT_MPI+CILK",
                   Table::num(b.modeled_seconds(), 4),
                   Table::num(base_hybrid / b.modeled_seconds(), 3),
                   Table::num(static_cast<double>(b.replicated_bytes) / (1 << 20), 4),
                   Table::num(b.energy, 6)});
  }
  harness::emit_table(table, "fig5_speedup");
  metrics.write("fig5_speedup");
  return 0;
}
