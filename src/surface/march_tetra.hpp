// Marching-tetrahedra isosurface extraction over a uniform grid.
//
// Chosen over classic marching cubes because the tetrahedral decomposition
// needs no 256-entry case table and cannot produce ambiguous (cracked)
// facets: every cube is split into 6 tetrahedra sharing a main diagonal, and
// each tetrahedron contributes 0, 1 or 2 triangles. Triangles are oriented
// so their geometric normal points OUT of the molecule (toward decreasing
// density), which is the orientation Eq. (4)'s surface integral requires.
//
// The march runs on short-lived worker threads started for each call
// (support/workers.hpp; the calling thread works too): workers claim lattice
// z-planes one at a time to sample the density, then, after every plane is
// sampled, claim cell z-planes one at a time to polygonize them. Emission
// order is plane-major, then y, then x, and every sample and triangle comes
// from the same floating-point expression whichever worker computes it, so
// the output is byte-identical for any number of workers. The march never
// uses a caller's thread pool, so it may be called from inside a
// ws::Scheduler task or an mpisim rank.
#pragma once

#include <functional>

#include "surface/density.hpp"
#include "surface/mesh.hpp"

namespace gbpol::surface {

struct MarchParams {
  double grid_spacing = 1.5;  // Angstrom
  double iso_value = 1.0;
};

// `workers` = 0 starts one worker per CPU in the calling thread's affinity
// mask (what `nproc` prints); a positive value pins the count (tests). Either
// way the count is capped by the number of lattice planes, and if a thread
// cannot be started the workers that did start finish the planes.
TriangleMesh march_tetrahedra(const DensityField& field, const MarchParams& params = {},
                              int workers = 0);

namespace detail {

// Receives cell plane `cz`'s triangles in emission order. Called once per
// plane, concurrently for different planes; it may move the triangles out.
using PlaneSink = std::function<void(int cz, TriangleMesh& plane)>;

// Number of cell z-planes the march of `field` at `params` polygonizes.
int cell_planes(const DensityField& field, const MarchParams& params);

// The one plane walker behind march_tetrahedra and
// molecular_surface_quadrature: samples the lattice, then hands each cell
// plane in [0, cell_planes) to `sink`. `workers` as for march_tetrahedra.
// An exception from `sink` stops the walk and is rethrown to the caller.
void march_planes(const DensityField& field, const MarchParams& params, int workers,
                  const PlaneSink& sink);

}  // namespace detail

}  // namespace gbpol::surface
