// Surface quadrature sets: the (r_k, n_k, w_k) triplets consumed by the
// r^4/r^6 Born-radius integrals of Eq. (3)/(4). Structure-of-arrays layout:
// the inner loops of both the naive and octree algorithms stream these.
#pragma once

#include <cstddef>
#include <vector>

#include "molecule/molecule.hpp"
#include "support/vec3.hpp"
#include "surface/mesh.hpp"

namespace gbpol::surface {

struct SurfaceQuadrature {
  std::vector<Vec3> points;    // r_k, on the molecular surface
  std::vector<Vec3> normals;   // n_k, unit outward normals
  std::vector<double> weights; // w_k, area weights (sum ~ total surface area)

  std::size_t size() const { return points.size(); }

  double total_weight() const {
    double s = 0.0;
    for (double w : weights) s += w;
    return s;
  }
};

// Per-triangle Dunavant sampling of a mesh: `degree` selects the rule
// (1..5 -> 1..7 points per triangle). Normals are the triangles' outward
// unit normals; point weights are rule_weight * triangle_area.
SurfaceQuadrature quadrature_from_mesh(const TriangleMesh& mesh, int degree = 2);

struct QuadratureParams {
  double grid_spacing = 1.5;
  int dunavant_degree = 2;
  double kappa = 2.3;
};

// End-to-end pipeline: Gaussian density -> marching tetrahedra -> Dunavant
// sampling. This is the production path a user calls on a Molecule. The
// march runs on one worker per CPU in the caller's affinity mask (see
// march_tetra.hpp); each cell plane's triangles become that plane's
// quadrature part, and the parts are concatenated in plane order. The
// whole-surface mesh is never built, and the points, normals and weights
// are byte-identical to quadrature_from_mesh(march_tetrahedra(field, march,
// 1), degree) for any worker count.
SurfaceQuadrature molecular_surface_quadrature(const Molecule& mol,
                                               const QuadratureParams& params = {});

}  // namespace gbpol::surface
