// Prepared input: the two octrees of Fig. 1 plus the per-tree payload arrays
// permuted into Morton order so every solver streams contiguous memory.
//
// Octree construction is the paper's "pre-processing" phase (§IV-C step 1):
// it is independent of the approximation parameters, so one Prepared can be
// reused across any number of eps sweeps or ligand poses.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/approx_math.hpp"
#include "core/gb_params.hpp"
#include "molecule/molecule.hpp"
#include "octree/octree.hpp"
#include "support/mat3.hpp"
#include "support/memtrack.hpp"
#include "surface/quadrature.hpp"

namespace gbpol {

struct Prepared {
  Octree atoms_tree;  // over atom centers
  Octree q_tree;      // over surface quadrature points

  // Atom payload in atoms_tree (Morton) order.
  std::vector<double> charge;            // q_a
  std::vector<double> intrinsic_radius;  // r_a (vdW)

  // Quadrature payload in q_tree order: weight-scaled normals w_q * n_q
  // (every use of the quadrature multiplies these together).
  std::vector<Vec3> weighted_normal;

  // SoA mirrors of the point payloads (atoms_tree / q_tree order). Morton
  // sorting makes every octree leaf a contiguous range of these arrays, so
  // the batched near-field kernels (approx_math / kernels_simd) stream them
  // without gathering through Vec3. All three stores share one page arena
  // (hot_arena below): 64-byte-aligned, first-touch committed by the
  // building thread, accounted by arena_mapped_bytes().
  PointsSoA atoms_soa;  // atom centers
  PointsSoA q_soa;      // quadrature points
  PointsSoA q_wn_soa;   // weighted normals w_q * n_q

  // Owner of the SoA stores' slabs (shared with their allocators, so it may
  // outlive this struct if a store is moved out).
  std::shared_ptr<PageArena> hot_arena;

  // Per-q_tree-NODE aggregate sum of w*n — the tilde-n of Fig. 2. Every
  // node holds it; the Born walks read it at Q leaves.
  std::vector<Vec3> node_weighted_normal;

  // Per-q_tree-NODE first-moment tensor sum of w * n (x) (p - centroid):
  // feeds the optional dipole far-field correction (extension; see
  // ApproxParams::born_dipole_correction), which Taylor-expands the kernel
  // around the node centroid instead of collapsing the node to a point.
  std::vector<Mat3> node_moment;

  double build_seconds = 0.0;  // octree + aggregate construction wall time

  std::size_t num_atoms() const { return atoms_tree.num_points(); }
  std::size_t num_qpoints() const { return q_tree.num_points(); }

  // Maps a Born-radius array in atoms_tree order back to input atom order.
  std::vector<double> to_original_order(std::span<const double> sorted) const;

  // Logical bytes one rank replicates in the paper's "distribute work, not
  // data" scheme (§IV-A): both trees plus all payload arrays.
  MemoryFootprint replicated_footprint() const;

  // Builds both octrees (Octree::build), then the payloads and the SoA
  // stores slot by slot and the leaf aggregates leaf by leaf, each pass on
  // claimed blocks of short-lived workers (build_workers in octree.hpp); the
  // internal-node aggregates fold serially, children in child order. Every
  // value comes from the same expression in the same order whichever worker
  // computes it, so the result is byte-identical for any worker count.
  static Prepared build(const Molecule& mol, const surface::SurfaceQuadrature& quad,
                        std::uint32_t leaf_capacity);

  // Domain-pinned variant for the incremental trajectory engine
  // (core/incremental.hpp): Morton codes for the two trees are quantized
  // against the caller's fixed boxes instead of the fitted bounding boxes, so
  // rebuilds over perturbed point sets stay comparable (see
  // Octree::BuildParams::domain). Empty boxes fall back to fitted — passing
  // two empty domains reproduces the overload above bit-for-bit.
  static Prepared build(const Molecule& mol, const surface::SurfaceQuadrature& quad,
                        std::uint32_t leaf_capacity, const Aabb& atoms_domain,
                        const Aabb& q_domain);
};

}  // namespace gbpol
