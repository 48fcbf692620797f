// Fig. 7: performance comparison of the octree-based algorithms — OCT_CILK
// (one rank of 12 work-stealing threads), OCT_MPI and OCT_MPI+CILK, all
// three the same chunk fold — across the ZDock-like suite on one modeled
// 12-core node, with approximate math ON (as in the paper's Fig. 7), rows
// sorted by OCT_CILK time.
#include <algorithm>
#include <iostream>

#include "bench_common.hpp"
#include "core/drivers.hpp"

int main() {
  using namespace gbpol;
  using namespace gbpol::bench;

  harness::print_figure_header(
      "Fig. 7", "Octree variants across the suite (approx math ON, 12 cores)");
  const auto suite = suite_subset(/*stride=*/7);
  std::printf("%zu molecules (GBPOL_FULL=1 for all 84)\n", suite.size());

  ApproxParams params;
  params.approx_math = true;
  const GBConstants constants;
  const mpisim::ClusterModel cluster = mpisim::ClusterModel::lonestar4();

  struct Row {
    std::size_t atoms;
    double cilk, mpi, hybrid;
  };
  std::vector<Row> rows;
  for (const Molecule& mol : suite) {
    const PreparedMolecule pm = prepare(mol);
    const Engine engine(pm.prep, params, constants);
    RunOptions mpi = distributed_options(12);
    mpi.cluster = cluster;
    RunOptions hybrid = distributed_options(2, 6);
    hybrid.cluster = cluster;
    Row row{mol.size(), 0, 0, 0};
    row.cilk = engine.run(cilk_options(12)).modeled_seconds();
    row.mpi = engine.run(mpi).modeled_seconds();
    row.hybrid = engine.run(hybrid).modeled_seconds();
    rows.push_back(row);
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.cilk < b.cilk; });

  Table table({"atoms", "OCT_CILK(s)", "OCT_MPI(s)", "OCT_MPI+CILK(s)"});
  for (const Row& r : rows)
    table.add_row({Table::integer(static_cast<long long>(r.atoms)),
                   Table::num(r.cilk, 4), Table::num(r.mpi, 4),
                   Table::num(r.hybrid, 4)});
  harness::emit_table(table, "fig7_octree_variants");
  return 0;
}
