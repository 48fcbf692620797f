#include "surface/march_tetra.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <vector>

#include "support/workers.hpp"

namespace gbpol::surface {
namespace {

// Corner i of a cube sits at offset (i&1, (i>>1)&1, (i>>2)&1). The six
// tetrahedra below share the 0-7 main diagonal; this decomposition
// triangulates every cube face with the diagonal through the face corners
// adjacent to 0 and 7, which is the SAME geometric diagonal its neighbour
// picks — so the extracted surface is crack-free without parity tricks.
constexpr int kTets[6][4] = {
    {0, 1, 3, 7}, {0, 3, 2, 7}, {0, 2, 6, 7},
    {0, 6, 4, 7}, {0, 4, 5, 7}, {0, 5, 1, 7},
};

Vec3 interpolate(const Vec3& p0, double f0, const Vec3& p1, double f1, double iso) {
  const double denom = f1 - f0;
  // Corners are classified strictly-inside vs outside, so denom != 0 for a
  // crossed edge; the guard is defensive for near-equal values.
  const double t = std::abs(denom) > 1e-300 ? (iso - f0) / denom : 0.5;
  return p0 + (p1 - p0) * t;
}

// Appends `tri` oriented so its normal points away from `inside_ref` (a
// point on the molecule side of the surface).
void emit_oriented(TriangleMesh& mesh, Triangle tri, const Vec3& inside_ref) {
  const Vec3 an = tri.area_normal();
  constexpr double kMinArea2 = 1e-20;
  if (norm2(an) < kMinArea2) return;  // degenerate sliver
  if (dot(an, tri.centroid() - inside_ref) < 0.0) std::swap(tri.b, tri.c);
  mesh.triangles.push_back(tri);
}

void polygonize_tet(TriangleMesh& mesh, const std::array<Vec3, 4>& p,
                    const std::array<double, 4>& f, double iso) {
  int inside[4], outside[4];
  int n_in = 0, n_out = 0;
  for (int i = 0; i < 4; ++i) {
    if (f[i] > iso)
      inside[n_in++] = i;
    else
      outside[n_out++] = i;
  }
  if (n_in == 0 || n_in == 4) return;

  if (n_in == 1 || n_in == 3) {
    // One vertex separated from the other three: single triangle.
    const int apex = n_in == 1 ? inside[0] : outside[0];
    const int* base = n_in == 1 ? outside : inside;
    Triangle tri{
        interpolate(p[apex], f[apex], p[base[0]], f[base[0]], iso),
        interpolate(p[apex], f[apex], p[base[1]], f[base[1]], iso),
        interpolate(p[apex], f[apex], p[base[2]], f[base[2]], iso),
    };
    const Vec3 inside_ref = n_in == 1 ? p[apex] : (p[base[0]] + p[base[1]] + p[base[2]]) / 3.0;
    emit_oriented(mesh, tri, inside_ref);
    return;
  }

  // Two in, two out: the crossing points form a quad; split into two
  // triangles sharing the q0-q2 diagonal (q indices chosen so the quad is
  // traversed along its perimeter: (a-c, a-d, b-d, b-c)).
  const int a = inside[0], b = inside[1], c = outside[0], d = outside[1];
  const Vec3 q0 = interpolate(p[a], f[a], p[c], f[c], iso);
  const Vec3 q1 = interpolate(p[a], f[a], p[d], f[d], iso);
  const Vec3 q2 = interpolate(p[b], f[b], p[d], f[d], iso);
  const Vec3 q3 = interpolate(p[b], f[b], p[c], f[c], iso);
  const Vec3 inside_ref = 0.5 * (p[a] + p[b]);
  emit_oriented(mesh, Triangle{q0, q1, q2}, inside_ref);
  emit_oriented(mesh, Triangle{q0, q2, q3}, inside_ref);
}

// The sampling lattice: (nx+1)(ny+1)(nz+1) points spaced h apart from the
// field's domain corner, and the nx*ny*nz cells between them.
struct Lattice {
  Lattice(const DensityField& field, double spacing)
      : lo(field.domain().lo), h(spacing) {
    const Vec3 ext = field.domain().extent();
    nx = std::max(1, static_cast<int>(std::ceil(ext.x / h)));
    ny = std::max(1, static_cast<int>(std::ceil(ext.y / h)));
    nz = std::max(1, static_cast<int>(std::ceil(ext.z / h)));
  }

  std::size_t samples() const {
    return static_cast<std::size_t>(nx + 1) * (ny + 1) * (nz + 1);
  }
  std::size_t index(int ix, int iy, int iz) const {
    return (static_cast<std::size_t>(iz) * (ny + 1) + iy) * (nx + 1) + ix;
  }
  Vec3 point(int ix, int iy, int iz) const {
    return Vec3{lo.x + ix * h, lo.y + iy * h, lo.z + iz * h};
  }

  Vec3 lo;
  double h;
  int nx = 1, ny = 1, nz = 1;
};

void sample_plane(const DensityField& field, const Lattice& lat, int iz,
                  std::vector<double>& values) {
  for (int iy = 0; iy <= lat.ny; ++iy)
    for (int ix = 0; ix <= lat.nx; ++ix)
      values[lat.index(ix, iy, iz)] = field.value(lat.point(ix, iy, iz));
}

void polygonize_plane(const Lattice& lat, const std::vector<double>& values, double iso,
                      int cz, TriangleMesh& mesh) {
  for (int cy = 0; cy < lat.ny; ++cy) {
    for (int cx = 0; cx < lat.nx; ++cx) {
      std::array<Vec3, 8> corner;
      std::array<double, 8> fval;
      bool any_in = false, any_out = false;
      for (int i = 0; i < 8; ++i) {
        const int ix = cx + (i & 1), iy = cy + ((i >> 1) & 1), iz = cz + ((i >> 2) & 1);
        corner[i] = lat.point(ix, iy, iz);
        fval[i] = values[lat.index(ix, iy, iz)];
        (fval[i] > iso ? any_in : any_out) = true;
      }
      if (!any_in || !any_out) continue;
      for (const auto& tet : kTets) {
        polygonize_tet(mesh,
                       {corner[tet[0]], corner[tet[1]], corner[tet[2]], corner[tet[3]]},
                       {fval[tet[0]], fval[tet[1]], fval[tet[2]], fval[tet[3]]}, iso);
      }
    }
  }
}

}  // namespace

namespace detail {

int cell_planes(const DensityField& field, const MarchParams& params) {
  return Lattice(field, params.grid_spacing).nz;
}

void march_planes(const DensityField& field, const MarchParams& params, int workers,
                  const PlaneSink& sink) {
  const Lattice lat(field, params.grid_spacing);
  const int sample_planes = lat.nz + 1;
  // Sampled once; cells read their corners from here instead of
  // re-evaluating the field 8x6 times.
  std::vector<double> values(lat.samples());

  std::atomic<int> next_sample{0}, sampled{0}, next_cell{0};
  std::atomic<bool> failed{false};

  // Runs on every worker. An exception from a plane stops the walk and
  // reaches the caller through workers::run.
  const auto work = [&] {
    for (int iz; (iz = next_sample.fetch_add(1)) < sample_planes;) {
      sample_plane(field, lat, iz, values);
      if (sampled.fetch_add(1) + 1 == sample_planes) sampled.notify_all();
    }
    // Barrier: a cell plane reads two lattice planes, which other workers
    // may have sampled.
    for (int n; (n = sampled.load()) < sample_planes;) sampled.wait(n);

    TriangleMesh plane;
    try {
      for (int cz; !failed.load() && (cz = next_cell.fetch_add(1)) < lat.nz;) {
        plane.triangles.clear();
        polygonize_plane(lat, values, params.iso_value, cz, plane);
        sink(cz, plane);
      }
    } catch (...) {
      failed.store(true);
      throw;
    }
  };

  workers::run(workers > 0 ? std::clamp(workers, 1, sample_planes)
                           : workers::count_for(sample_planes, sample_planes, 1),
               work);
}

}  // namespace detail

TriangleMesh march_tetrahedra(const DensityField& field, const MarchParams& params,
                              int workers) {
  std::vector<std::vector<Triangle>> planes(detail::cell_planes(field, params));
  detail::march_planes(field, params, workers, [&](int cz, TriangleMesh& plane) {
    planes[cz] = std::move(plane.triangles);
  });
  std::size_t total = 0;
  for (const auto& p : planes) total += p.size();
  TriangleMesh mesh;
  mesh.triangles.reserve(total);
  for (const auto& p : planes) mesh.triangles.insert(mesh.triangles.end(), p.begin(), p.end());
  return mesh;
}

}  // namespace gbpol::surface
