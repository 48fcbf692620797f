// Physical constants and tuning parameters of the GB polarization-energy
// calculation (Eq. 2 / Eq. 4 of the paper).
#pragma once

#include <cmath>
#include <cstdint>

namespace gbpol {

struct GBConstants {
  double eps_solvent = 80.0;  // water dielectric
  // Electrostatic conversion constant, kcal*Angstrom/(mol*e^2).
  double coulomb_kcal = 332.0636;

  // tau = 1 - 1/eps_solv; E_pol = -(tau/2) * ke * sum q_i q_j / f_GB.
  double tau() const { return 1.0 - 1.0 / eps_solvent; }
};

// Which surface-integral kernel produces Born radii: the r^6 form of Eq. (4)
// (Grycuk; exact for spherical solutes — the paper's choice) or the r^4
// Coulomb-field form of Eq. (3), which overestimates buried radii.
enum class RadiusKernel { kR6, kR4 };

// How a serial run traverses the octrees (RunOptions::traversal; route()
// rejects kRecursive on every other shape):
//  * kList      — the opening-criterion walk (core/interaction_lists.hpp),
//                 evaluating each near/far entry with batched SoA kernels.
//  * kRecursive — the per-source-leaf recursion of Figs. 2 and 3 with
//                 scalar Vec3 kernels, the serial A/B baseline.
// Both modes evaluate the SAME near/far decomposition, so they agree to FP
// reassociation noise (tests/interaction_lists_test.cpp pins <= 1e-12).
enum class TraversalMode { kList, kRecursive };

struct ApproxParams {
  RadiusKernel radius_kernel = RadiusKernel::kR6;
  // Near/far approximation parameter for the Born-radius integrals (Fig. 2):
  // a node pair is far when r_AQ > (r_A + r_Q) * (k+1)/(k-1), k = (1+eps)^(1/6),
  // bounding each far term's relative error by eps.
  double eps_born = 0.9;
  // Approximation parameter for the energy traversal (Fig. 3): far when
  // r_UV > (r_U + r_V)(1 + 2/eps); Born radii are binned geometrically by
  // factors (1 + eps).
  double eps_epol = 0.9;
  // Use fast rsqrt/exp in the energy kernels (paper §V-C/§V-E: ~1.42x faster,
  // error shifted by 4-5%).
  bool approx_math = false;
  // Octree leaf capacity for both trees.
  std::uint32_t leaf_capacity = 32;
  // Far-criterion form for the Born traversal. The paper's Fig. 2 prints
  // ratio > (1+eps)^(1/6), whose consistent reading gives an opening
  // multiplier of ((1+e)^(1/6)+1)/((1+e)^(1/6)-1) ~ 18.7x at eps = 0.9 —
  // strict enough that the traversal costs MORE than the naive algorithm at
  // the paper's molecule sizes, contradicting the reported ~400x speedups.
  // The energy criterion of Fig. 3, r > (r_U+r_V)(1+2/eps), is equivalent to
  // bounding the distance ratio by (1+eps) and matches the reported
  // performance, so it is the default for BOTH traversals; the strict
  // text form is kept as an ablation knob (bench/ablation_criterion).
  bool born_strict_criterion = false;
  // Extension: add the first-order (dipole) term of the far-field kernel's
  // Taylor expansion around the quadrature-node centroid, using the
  // per-node moment tensors Prepared aggregates. Reduces the far-field
  // error at a given eps for a ~9-doubles-per-node memory cost
  // (bench/ablation_dipole quantifies the trade).
  bool born_dipole_correction = false;

  // Far-field distance multiplier for Born-radius integrals.
  double born_far_multiplier() const {
    if (born_strict_criterion) {
      const double k = std::pow(1.0 + eps_born, 1.0 / 6.0);
      return (k + 1.0) / (k - 1.0);
    }
    return 1.0 + 2.0 / eps_born;
  }
  // Far-field distance multiplier for the energy traversal: 1 + 2/eps.
  double epol_far_multiplier() const { return 1.0 + 2.0 / eps_epol; }
};

// f_GB of the Still model (Eq. 2):
//   f_ij = sqrt(r_ij^2 + R_i R_j exp(-r_ij^2 / (4 R_i R_j))).
inline double f_gb(double r2, double ri, double rj) {
  const double rr = ri * rj;
  return std::sqrt(r2 + rr * std::exp(-r2 / (4.0 * rr)));
}

}  // namespace gbpol
