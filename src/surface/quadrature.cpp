#include "surface/quadrature.hpp"

#include <vector>

#include "surface/density.hpp"
#include "surface/dunavant.hpp"
#include "surface/march_tetra.hpp"

namespace gbpol::surface {

SurfaceQuadrature quadrature_from_mesh(const TriangleMesh& mesh, int degree) {
  const auto rule = dunavant_rule(degree);
  SurfaceQuadrature quad;
  quad.points.reserve(mesh.triangles.size() * rule.size());
  quad.normals.reserve(mesh.triangles.size() * rule.size());
  quad.weights.reserve(mesh.triangles.size() * rule.size());

  for (const Triangle& tri : mesh.triangles) {
    const Vec3 an = tri.area_normal();
    const double area = 0.5 * norm(an);
    if (area <= 0.0) continue;
    const Vec3 n = an / (2.0 * area);
    for (const BarycentricPoint& bp : rule) {
      quad.points.push_back(tri.a * bp.l1 + tri.b * bp.l2 + tri.c * bp.l3);
      quad.normals.push_back(n);
      quad.weights.push_back(bp.weight * area);
    }
  }
  return quad;
}

SurfaceQuadrature molecular_surface_quadrature(const Molecule& mol,
                                               const QuadratureParams& params) {
  const DensityField field(mol, {.kappa = params.kappa, .tolerance = 1e-4});
  const MarchParams march{.grid_spacing = params.grid_spacing, .iso_value = 1.0};
  // Each cell plane becomes its own quadrature part as soon as it is
  // polygonized, so the whole-surface mesh is never built.
  std::vector<SurfaceQuadrature> parts(detail::cell_planes(field, march));
  detail::march_planes(field, march, /*workers=*/0, [&](int cz, TriangleMesh& plane) {
    parts[cz] = quadrature_from_mesh(plane, params.dunavant_degree);
  });

  std::size_t total = 0;
  for (const SurfaceQuadrature& part : parts) total += part.size();
  SurfaceQuadrature quad;
  quad.points.reserve(total);
  quad.normals.reserve(total);
  quad.weights.reserve(total);
  for (const SurfaceQuadrature& part : parts) {
    quad.points.insert(quad.points.end(), part.points.begin(), part.points.end());
    quad.normals.insert(quad.normals.end(), part.normals.begin(), part.normals.end());
    quad.weights.insert(quad.weights.end(), part.weights.begin(), part.weights.end());
  }
  return quad;
}

}  // namespace gbpol::surface
