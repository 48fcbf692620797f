// Ablation (§II): octree vs nonbonded lists. The nblist's size grows
// ~cubically with the cutoff and must be rebuilt when atoms move; the octree
// is linear in the atom count, independent of the approximation parameter,
// and its build cost does not change with the cutoff.
#include <iostream>

#include "bench_common.hpp"
#include "nblist/nblist.hpp"
#include "support/timer.hpp"

int main() {
  using namespace gbpol;
  using namespace gbpol::bench;

  harness::print_figure_header("Ablation", "Octree vs nonbonded list (space & update)");
  const Molecule mol = molgen::synthetic_protein(
      static_cast<std::size_t>(20000 * harness::env_scale()), 4242);
  std::vector<Vec3> pos(mol.size());
  for (std::size_t i = 0; i < mol.size(); ++i) pos[i] = mol.atom(i).pos;
  std::printf("molecule: %zu atoms\n", mol.size());

  // Octree: one build, any parameter.
  ThreadCpuTimer timer;
  const Octree tree = Octree::build(pos, {.leaf_capacity = 32, .max_depth = 20, .domain = {}});
  const double octree_build = timer.seconds();
  const double octree_mib = tree.footprint().mib();
  std::printf("octree: %.2f MiB, built in %.4f s (cutoff-independent)\n\n", octree_mib,
              octree_build);

  Table table({"cutoff(A)", "nblist pairs", "nblist MiB", "build(s)", "rebuild(s)",
               "nblist/octree space"});
  for (const double cutoff : {4.0, 6.0, 8.0, 12.0, 16.0, 24.0}) {
    timer.reset();
    nblist::NonbondedList nb(pos, cutoff);
    const double build = timer.seconds();
    // Perturb every atom slightly (an MD step) and rebuild.
    std::vector<Vec3> moved = pos;
    for (Vec3& p : moved) p += Vec3{0.05, -0.03, 0.02};
    timer.reset();
    nb.rebuild(moved);
    const double rebuild = timer.seconds();
    table.add_row({Table::num(cutoff, 3),
                   Table::integer(static_cast<long long>(nb.num_pairs())),
                   Table::num(nb.footprint().mib(), 4), Table::num(build, 4),
                   Table::num(rebuild, 4),
                   Table::num(nb.footprint().mib() / octree_mib, 3)});
  }
  harness::emit_table(table, "ablation_octree_vs_nblist");
  return 0;
}
