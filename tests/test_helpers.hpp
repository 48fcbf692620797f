// Shared fixtures for gbpol tests: small deterministic molecules with their
// surface quadratures and Prepared octrees.
#pragma once

#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "core/balance.hpp"
#include "core/halo_exchange.hpp"
#include "core/naive.hpp"
#include "core/prepared.hpp"
#include "molecule/generate.hpp"
#include "molecule/suite.hpp"
#include "surface/quadrature.hpp"
#include "surface/sphere_quad.hpp"

namespace gbpol::testing {

struct Fixture {
  Molecule mol;
  surface::SurfaceQuadrature quad;
  Prepared prep;
  std::vector<double> naive_born;  // atom order
  double naive_energy = 0.0;
};

// Synthetic protein of ~n atoms with its real (marched) surface quadrature
// and the naive reference solution.
inline Fixture make_fixture(std::size_t n_atoms, std::uint64_t seed = 7,
                            std::uint32_t leaf_capacity = 16) {
  Fixture f;
  f.mol = molgen::synthetic_protein(n_atoms, seed);
  f.quad = surface::molecular_surface_quadrature(f.mol, {.grid_spacing = 1.5,
                                                         .dunavant_degree = 2,
                                                         .kappa = 2.3});
  f.prep = Prepared::build(f.mol, f.quad, leaf_capacity);
  const NaiveResult naive = run_naive(f.mol, f.quad, GBConstants{});
  f.naive_born = naive.born_radii;
  f.naive_energy = naive.energy;
  return f;
}

// Sorted-order naive Born radii (for feeding EpolSolver directly).
inline std::vector<double> naive_born_sorted(const Fixture& f) {
  std::vector<double> sorted(f.naive_born.size());
  for (std::size_t slot = 0; slot < sorted.size(); ++slot)
    sorted[slot] = f.naive_born[f.prep.atoms_tree.permutation()[slot]];
  return sorted;
}

// Work items a plain OCT_MPI run (the canonical chunk fold: kStatic,
// default chunking, replicated data) redistributes when rank `dead` dies at
// collective `seq` (0 = Born token, 1 = radii allgatherv, 2 = E_pol token).
// Deaths fire at collective entry, so the dead rank's Born chunks are
// already published; the writer reconstructs its atom slice for the radii
// allgatherv and the survivors recompute its E_pol chunks (one item per
// atom and per atom-tree leaf). A death at the E_pol token orphans nothing.
inline std::uint64_t canonical_death_redistribution(const Prepared& prep,
                                                    int ranks, int dead,
                                                    std::uint64_t seq) {
  if (seq >= 2) return 0;
  const auto n_qleaves = static_cast<std::uint32_t>(prep.q_tree.leaves().size());
  const auto n_aleaves = static_cast<std::uint32_t>(prep.atoms_tree.leaves().size());
  const OwnershipMap own = make_ownership_map(prep, ranks,
                                              make_chunk_plan(n_qleaves, ranks, 0),
                                              make_chunk_plan(n_aleaves, ranks, 0));
  const OwnershipMap::RankSpan& span = own.ranks[static_cast<std::size_t>(dead)];
  return span.atoms.count() + span.atom_leaves.count();
}

// A path under the test temp dir named `name` plus this process id, so the
// suites of two build presets running at once never share (or delete) each
// other's files. Every path handed out is removed when the process exits.
inline std::string temp_path(const std::string& name) {
  struct Paths {
    std::vector<std::string> handed_out;
    ~Paths() {
      for (const std::string& p : handed_out) {
        std::error_code ec;
        std::filesystem::remove_all(p, ec);
      }
    }
  };
  static Paths paths;
  paths.handed_out.push_back((std::filesystem::path(::testing::TempDir()) /
                              (name + "_" + std::to_string(::getpid())))
                                 .string());
  return paths.handed_out.back();
}

// temp_path(name) as a fresh, empty directory.
inline std::string fresh_temp_dir(const std::string& name) {
  const std::string dir = temp_path(name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// Molecules shaped like the benchmark workloads, for properties that depend
// on real neighbourhood structure: sampled zdock-like complexes and a
// CMV-like capsid shell (~6k atoms).
inline std::vector<Molecule> workload_molecules() {
  std::vector<Molecule> mols =
      molgen::zdock_like_suite({.count = 3, .min_atoms = 1500, .max_atoms = 8000});
  mols.push_back(molgen::cmv_like(0.05));
  return mols;
}

}  // namespace gbpol::testing
