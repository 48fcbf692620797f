// Shared fixtures for gbpol tests: small deterministic molecules with their
// surface quadratures and Prepared octrees.
#pragma once

#include <cstring>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include <sched.h>
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

// The surface the perfbench workloads request.
inline constexpr surface::QuadratureParams kBenchSurface{
    .grid_spacing = 2.0, .dunavant_degree = 1, .kappa = 2.3};

// Every molecule the benchmark workloads are drawn from: the 84 zdock-like
// complexes, then the six cmv_owned shell sizes (15k-30k atoms).
inline std::vector<Molecule> bench_molecules() {
  std::vector<Molecule> mols = molgen::zdock_like_suite();
  for (const double atoms : {15000.0, 18000.0, 21000.0, 24000.0, 27000.0, 30000.0})
    mols.push_back(molgen::cmv_like(atoms / 120000.0));
  return mols;
}

// Byte equality of two arrays of trivially copyable values (padding-free
// element types only: compare OctreeNode field by field, see same_octree).
template <typename A, typename B>
bool same_bytes(const A& a, const B& b) {
  const std::span sa(a), sb(b);
  return sa.size() == sb.size() &&
         (sa.empty() || std::memcmp(sa.data(), sb.data(), sa.size_bytes()) == 0);
}

// Two octrees are byte-identical: points, permutation, every node field (a
// node has padding bytes, so not one memcmp over the node array) and leaves.
inline ::testing::AssertionResult same_octree(const Octree& a, const Octree& b) {
  if (!same_bytes(a.points(), b.points())) return ::testing::AssertionFailure() << "points";
  if (!same_bytes(a.permutation(), b.permutation()))
    return ::testing::AssertionFailure() << "permutation";
  if (!same_bytes(a.leaves(), b.leaves())) return ::testing::AssertionFailure() << "leaves";
  if (a.nodes().size() != b.nodes().size()) return ::testing::AssertionFailure() << "node count";
  for (std::size_t id = 0; id < a.nodes().size(); ++id) {
    const OctreeNode &x = a.nodes()[id], &y = b.nodes()[id];
    const bool same = std::memcmp(&x.centroid, &y.centroid, sizeof(Vec3)) == 0 &&
                      std::memcmp(&x.radius, &y.radius, sizeof(double)) == 0 &&
                      x.begin == y.begin && x.end == y.end &&
                      x.first_child == y.first_child && x.child_count == y.child_count &&
                      x.depth == y.depth;
    if (!same) return ::testing::AssertionFailure() << "node " << id;
  }
  return ::testing::AssertionSuccess();
}

// Two Prepared are byte-identical: both trees, every payload array, the SoA
// stores and the node aggregates.
inline ::testing::AssertionResult same_prepared(const Prepared& a, const Prepared& b) {
  if (auto r = same_octree(a.atoms_tree, b.atoms_tree); !r) return r << " (atoms tree)";
  if (auto r = same_octree(a.q_tree, b.q_tree); !r) return r << " (q tree)";
  const struct {
    const char* name;
    bool same;
  } arrays[] = {
      {"charge", same_bytes(a.charge, b.charge)},
      {"intrinsic_radius", same_bytes(a.intrinsic_radius, b.intrinsic_radius)},
      {"weighted_normal", same_bytes(a.weighted_normal, b.weighted_normal)},
      {"node_weighted_normal", same_bytes(a.node_weighted_normal, b.node_weighted_normal)},
      {"node_moment", same_bytes(a.node_moment, b.node_moment)},
      {"atoms_soa.x", same_bytes(a.atoms_soa.x, b.atoms_soa.x)},
      {"atoms_soa.y", same_bytes(a.atoms_soa.y, b.atoms_soa.y)},
      {"atoms_soa.z", same_bytes(a.atoms_soa.z, b.atoms_soa.z)},
      {"q_soa.x", same_bytes(a.q_soa.x, b.q_soa.x)},
      {"q_soa.y", same_bytes(a.q_soa.y, b.q_soa.y)},
      {"q_soa.z", same_bytes(a.q_soa.z, b.q_soa.z)},
      {"q_wn_soa.x", same_bytes(a.q_wn_soa.x, b.q_wn_soa.x)},
      {"q_wn_soa.y", same_bytes(a.q_wn_soa.y, b.q_wn_soa.y)},
      {"q_wn_soa.z", same_bytes(a.q_wn_soa.z, b.q_wn_soa.z)},
  };
  for (const auto& arr : arrays)
    if (!arr.same) return ::testing::AssertionFailure() << arr.name;
  return ::testing::AssertionSuccess();
}

// Restricts the calling thread to the first `cpus` CPUs of its affinity mask
// for the object's lifetime. The host stages on short-lived workers (the
// surface march, the planning walks, Prepared::build) derive their worker
// count from that mask. ok() is false when the host has fewer CPUs.
class PinnedCpus {
 public:
  explicit PinnedCpus(int cpus) {
    CPU_ZERO(&saved_);
    ok_ = sched_getaffinity(0, sizeof(saved_), &saved_) == 0 && CPU_COUNT(&saved_) >= cpus;
    if (!ok_) return;
    cpu_set_t pinned;
    CPU_ZERO(&pinned);
    for (int c = 0, taken = 0; c < CPU_SETSIZE && taken < cpus; ++c)
      if (CPU_ISSET(c, &saved_)) {
        CPU_SET(c, &pinned);
        ++taken;
      }
    ok_ = sched_setaffinity(0, sizeof(pinned), &pinned) == 0;
  }
  ~PinnedCpus() {
    if (ok_) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  PinnedCpus(const PinnedCpus&) = delete;
  PinnedCpus& operator=(const PinnedCpus&) = delete;

  bool ok() const { return ok_; }

 private:
  cpu_set_t saved_;
  bool ok_ = false;
};

}  // namespace gbpol::testing
