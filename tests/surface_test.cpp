// Surface substrate: density field, marching tetrahedra, Dunavant rules,
// quadrature pipeline, Fibonacci sphere, and the byte-identity of the
// parallel march for any worker count.
#include <atomic>
#include <cmath>
#include <cstring>
#include <numbers>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "molecule/generate.hpp"
#include "molecule/suite.hpp"
#include "mpisim/pool.hpp"
#include "surface/density.hpp"
#include "surface/dunavant.hpp"
#include "surface/march_tetra.hpp"
#include "surface/quadrature.hpp"
#include "surface/sphere_quad.hpp"
#include "test_helpers.hpp"
#include "ws/scheduler.hpp"

namespace gbpol::surface {
namespace {

Molecule single_atom(double radius) {
  return Molecule("one", {{Vec3{}, radius, 0.0}});
}

TEST(DensityTest, SingleAtomValues) {
  const double kappa = 2.3;
  const Molecule mol = single_atom(1.5);
  const DensityField field(mol, {.kappa = kappa, .tolerance = 1e-4});
  // f(center) = exp(kappa); f(surface point at r) = exp(0) = 1.
  EXPECT_NEAR(field.value(Vec3{}), std::exp(kappa), 1e-9);
  EXPECT_NEAR(field.value(Vec3{1.5, 0, 0}), 1.0, 1e-9);
  EXPECT_LT(field.value(Vec3{3.0, 0, 0}), 0.2);
  EXPECT_GT(field.cutoff(), 1.5);
}

TEST(DensityTest, GradientMatchesFiniteDifference) {
  const Molecule mol = molgen::synthetic_protein(64, 13);
  const DensityField field(mol);
  const double h = 1e-5;
  for (const Vec3 p : {mol.atom(0).pos + Vec3{0.7, 0.2, -0.4},
                       mol.centroid() + Vec3{1.1, 0, 0.5}}) {
    const Vec3 g = field.gradient(p);
    const Vec3 fd{
        (field.value(p + Vec3{h, 0, 0}) - field.value(p - Vec3{h, 0, 0})) / (2 * h),
        (field.value(p + Vec3{0, h, 0}) - field.value(p - Vec3{0, h, 0})) / (2 * h),
        (field.value(p + Vec3{0, 0, h}) - field.value(p - Vec3{0, 0, h})) / (2 * h)};
    EXPECT_NEAR(norm(g - fd), 0.0, 1e-5 * (1.0 + norm(g)));
  }
}

TEST(DensityTest, ValueIsSumOverAtoms) {
  Molecule mol("two", {{Vec3{}, 1.0, 0}, {Vec3{0.5, 0, 0}, 1.0, 0}});
  const DensityField both(mol);
  const DensityField first(single_atom(1.0));
  const Vec3 p{0.2, 0.1, 0.0};
  Molecule second_only("one", {{Vec3{0.5, 0, 0}, 1.0, 0}});
  const DensityField second(second_only);
  EXPECT_NEAR(both.value(p), first.value(p) + second.value(p), 1e-9);
}

TEST(MarchTetraTest, SphereAreaAndVolume) {
  // Single-atom Gaussian surface: the iso-1 level set of exp(-k(d^2/r^2-1))
  // is exactly the sphere d = r.
  const double r = 2.0;
  const DensityField field(single_atom(r));
  const TriangleMesh mesh = march_tetrahedra(field, {.grid_spacing = 0.25, .iso_value = 1.0});
  ASSERT_GT(mesh.triangles.size(), 100u);
  const double area = mesh.total_area();
  const double volume = mesh.enclosed_volume();
  EXPECT_NEAR(area / (4.0 * std::numbers::pi * r * r), 1.0, 0.03);
  EXPECT_NEAR(volume / (4.0 / 3.0 * std::numbers::pi * r * r * r), 1.0, 0.03);
}

TEST(MarchTetraTest, NormalsPointOutward) {
  const DensityField field(single_atom(2.0));
  const TriangleMesh mesh = march_tetrahedra(field, {.grid_spacing = 0.4, .iso_value = 1.0});
  for (const Triangle& tri : mesh.triangles) {
    // Outward on a sphere centered at the origin: normal . centroid > 0.
    EXPECT_GT(dot(tri.area_normal(), tri.centroid()), 0.0);
  }
}

TEST(MarchTetraTest, RefinementConverges) {
  const double r = 1.8;
  const DensityField field(single_atom(r));
  const double exact = 4.0 * std::numbers::pi * r * r;
  const double coarse =
      std::abs(march_tetrahedra(field, {.grid_spacing = 0.8, .iso_value = 1.0}).total_area() - exact);
  const double fine =
      std::abs(march_tetrahedra(field, {.grid_spacing = 0.2, .iso_value = 1.0}).total_area() - exact);
  EXPECT_LT(fine, coarse);
}

TEST(DunavantTest, WeightsSumToOne) {
  for (int degree = 1; degree <= 5; ++degree) {
    double sum = 0.0;
    for (const auto& bp : dunavant_rule(degree)) {
      sum += bp.weight;
      EXPECT_NEAR(bp.l1 + bp.l2 + bp.l3, 1.0, 1e-12);
    }
    EXPECT_NEAR(sum, 1.0, 1e-12) << "degree=" << degree;
  }
}

// Integrate x^a y^b over the unit reference triangle and compare with the
// exact a! b! / (a+b+2)!.
double integrate_monomial(int degree, int a, int b) {
  double sum = 0.0;
  for (const auto& bp : dunavant_rule(degree)) {
    // Map barycentric (l1,l2,l3) -> (x,y) = (l2, l3) on the unit triangle.
    sum += bp.weight * std::pow(bp.l2, a) * std::pow(bp.l3, b);
  }
  return sum * 0.5;  // reference triangle area
}

double exact_monomial(int a, int b) {
  auto fact = [](int n) {
    double f = 1.0;
    for (int i = 2; i <= n; ++i) f *= i;
    return f;
  };
  return fact(a) * fact(b) / fact(a + b + 2);
}

TEST(DunavantTest, ExactForPolynomialsOfDeclaredDegree) {
  for (int degree = 1; degree <= 5; ++degree) {
    for (int a = 0; a <= degree; ++a) {
      for (int b = 0; a + b <= degree; ++b) {
        EXPECT_NEAR(integrate_monomial(degree, a, b), exact_monomial(a, b), 1e-12)
            << "degree=" << degree << " x^" << a << " y^" << b;
      }
    }
  }
}

TEST(DunavantTest, ClampsOutOfRangeDegrees) {
  EXPECT_EQ(dunavant_rule(0).size(), dunavant_rule(1).size());
  EXPECT_EQ(dunavant_rule(9).size(), dunavant_rule(5).size());
}

TEST(QuadratureTest, WeightsSumToMeshArea) {
  const DensityField field(single_atom(2.0));
  const TriangleMesh mesh = march_tetrahedra(field, {.grid_spacing = 0.4, .iso_value = 1.0});
  for (int degree = 1; degree <= 3; ++degree) {
    const SurfaceQuadrature quad = quadrature_from_mesh(mesh, degree);
    EXPECT_NEAR(quad.total_weight() / mesh.total_area(), 1.0, 1e-12);
    EXPECT_EQ(quad.size(), mesh.triangles.size() * dunavant_rule(degree).size());
  }
}

TEST(QuadratureTest, NormalsAreUnit) {
  const DensityField field(single_atom(1.5));
  const TriangleMesh mesh = march_tetrahedra(field, {.grid_spacing = 0.4, .iso_value = 1.0});
  const SurfaceQuadrature quad = quadrature_from_mesh(mesh, 2);
  for (const Vec3& n : quad.normals) EXPECT_NEAR(norm(n), 1.0, 1e-12);
}

TEST(QuadratureTest, PipelineProducesReasonableCount) {
  const Molecule mol = molgen::synthetic_protein(400, 17);
  const SurfaceQuadrature quad = molecular_surface_quadrature(mol);
  // m = O(M): for small globules the surface/volume ratio pushes the
  // constant up; it stays bounded (large molecules approach the paper's
  // ~2-4 q-points per atom).
  EXPECT_GT(quad.size(), mol.size() / 4);
  EXPECT_LT(quad.size(), mol.size() * 80);
}

TEST(FibonacciSphereTest, WeightsAndGeometry) {
  const double r = 3.0;
  const Vec3 c{1, -2, 0.5};
  const SurfaceQuadrature quad = fibonacci_sphere_quadrature(5000, c, r);
  EXPECT_EQ(quad.size(), 5000u);
  EXPECT_NEAR(quad.total_weight(), 4.0 * std::numbers::pi * r * r, 1e-9);
  for (std::size_t i = 0; i < quad.size(); i += 97) {
    EXPECT_NEAR(distance(quad.points[i], c), r, 1e-12);
    EXPECT_NEAR(norm(quad.normals[i]), 1.0, 1e-12);
    EXPECT_NEAR(dot(quad.normals[i], normalized(quad.points[i] - c)), 1.0, 1e-12);
  }
}

TEST(FibonacciSphereTest, GaussTheoremOnDipoleField) {
  // Flux of the field of a charge INSIDE the sphere through the surface is
  // 4*pi (Gauss); quadrature should reproduce it.
  const SurfaceQuadrature quad = fibonacci_sphere_quadrature(20000, Vec3{}, 2.0);
  const Vec3 src{0.6, -0.3, 0.2};  // inside
  double flux = 0.0;
  for (std::size_t i = 0; i < quad.size(); ++i) {
    const Vec3 d = quad.points[i] - src;
    flux += quad.weights[i] * dot(d, quad.normals[i]) / std::pow(norm(d), 3.0);
  }
  EXPECT_NEAR(flux / (4.0 * std::numbers::pi), 1.0, 1e-3);
}

// --- Parallel march: byte-identical output for any worker count ----------

using gbpol::testing::same_bytes;

bool same_bytes(const SurfaceQuadrature& a, const SurfaceQuadrature& b) {
  return same_bytes(a.points, b.points) && same_bytes(a.normals, b.normals) &&
         same_bytes(a.weights, b.weights);
}

using gbpol::testing::kBenchSurface;
using gbpol::testing::PinnedCpus;

DensityField field_for(const Molecule& mol, const QuadratureParams& q) {
  return DensityField(mol, {.kappa = q.kappa, .tolerance = 1e-4});
}

// The serial reference composition: one worker, whole mesh, whole-mesh
// quadrature.
SurfaceQuadrature serial_quadrature(const Molecule& mol, const QuadratureParams& q) {
  const DensityField field = field_for(mol, q);
  return quadrature_from_mesh(
      march_tetrahedra(field, {.grid_spacing = q.grid_spacing, .iso_value = 1.0}, 1),
      q.dunavant_degree);
}

TEST(SurfaceTest, ParallelMarchIsBitIdenticalAcrossWorkers) {
  // All 84 zdock-like complexes and the six cmv_owned shell sizes, at the
  // perfbench surface.
  const std::vector<Molecule> mols = gbpol::testing::bench_molecules();

  const MarchParams march{.grid_spacing = kBenchSurface.grid_spacing, .iso_value = 1.0};
  for (const Molecule& mol : mols) {
    const DensityField field = field_for(mol, kBenchSurface);
    const TriangleMesh reference = march_tetrahedra(field, march, 1);
    ASSERT_FALSE(reference.triangles.empty()) << mol.size() << " atoms";
    for (const int workers : {2, 4, 7})
      ASSERT_TRUE(same_bytes(march_tetrahedra(field, march, workers).triangles,
                             reference.triangles))
          << mol.size() << " atoms, " << workers << " workers";

    const SurfaceQuadrature serial =
        quadrature_from_mesh(reference, kBenchSurface.dunavant_degree);
    ASSERT_TRUE(same_bytes(molecular_surface_quadrature(mol, kBenchSurface), serial))
        << mol.size() << " atoms";
  }

  // The quadrature's own worker count follows the affinity mask: one CPU
  // and two CPUs give the same bytes as the serial composition.
  const Molecule& largest = mols.back();
  const SurfaceQuadrature serial = serial_quadrature(largest, kBenchSurface);
  for (const int cpus : {1, 2}) {
    const PinnedCpus pin(cpus);
    if (!pin.ok()) continue;  // the host has fewer CPUs
    EXPECT_TRUE(same_bytes(molecular_surface_quadrature(largest, kBenchSurface), serial))
        << cpus << " CPUs";
  }
}

TEST(SurfaceTest, ParallelMarchEdgeCases) {
  // The fine single-atom sphere of SphereAreaAndVolume.
  {
    const DensityField field(single_atom(2.0));
    const MarchParams fine{.grid_spacing = 0.25, .iso_value = 1.0};
    const TriangleMesh reference = march_tetrahedra(field, fine, 1);
    ASSERT_GT(reference.triangles.size(), 100u);
    for (const int workers : {2, 4, 7})
      EXPECT_TRUE(same_bytes(march_tetrahedra(field, fine, workers).triangles,
                             reference.triangles))
          << workers << " workers";
    const QuadratureParams q{.grid_spacing = 0.25, .dunavant_degree = 3, .kappa = 2.3};
    EXPECT_TRUE(same_bytes(molecular_surface_quadrature(single_atom(2.0), q),
                           serial_quadrature(single_atom(2.0), q)));
  }
  // A domain one cell plane thick: a spacing wider than the domain's z
  // extent. Both lattice planes lie a cutoff beyond every atom, so the mesh
  // is empty; the walk still runs its two sample planes and one cell plane
  // on every worker count.
  {
    const Molecule mol = molgen::synthetic_protein(64, 13);
    const DensityField field(mol);
    const MarchParams slab{.grid_spacing = field.domain().extent().z * 1.01, .iso_value = 1.0};
    ASSERT_EQ(detail::cell_planes(field, slab), 1);
    for (const int workers : {1, 2, 4})
      EXPECT_TRUE(march_tetrahedra(field, slab, workers).triangles.empty())
          << workers << " workers";
  }
  // More workers than lattice planes: the count is capped, the bytes hold.
  {
    const DensityField field(single_atom(1.5));
    const MarchParams coarse{.grid_spacing = 1.0, .iso_value = 1.0};
    ASSERT_LT(detail::cell_planes(field, coarse) + 1, 16);
    const TriangleMesh reference = march_tetrahedra(field, coarse, 1);
    ASSERT_FALSE(reference.triangles.empty());
    EXPECT_TRUE(same_bytes(march_tetrahedra(field, coarse, 16).triangles, reference.triangles));
  }
}

TEST(SurfaceTest, PlaneSinkExceptionReachesTheCaller) {
  const Molecule mol = molgen::synthetic_protein(400, 17);
  const DensityField field(mol);
  const MarchParams march{.grid_spacing = 1.0, .iso_value = 1.0};
  std::atomic<int> planes{0};
  EXPECT_THROW(detail::march_planes(field, march, 4,
                                    [&](int cz, TriangleMesh&) {
                                      planes.fetch_add(1);
                                      if (cz == 3) throw std::runtime_error("sink failed");
                                    }),
               std::runtime_error);
  EXPECT_LE(planes.load(), detail::cell_planes(field, march));
}

TEST(SurfaceTest, QuadratureFromInsideWorkerPoolsMatchesSerial) {
  // The march starts its own threads and never the caller's pool, so a call
  // from a ws::Scheduler task or an mpisim rank neither deadlocks nor nests
  // pools, and returns the serial bytes.
  const Molecule mol = molgen::bound_complex(3000, 77);
  const SurfaceQuadrature serial = serial_quadrature(mol, kBenchSurface);

  SurfaceQuadrature from_task;
  ws::Scheduler sched(2);
  sched.run([&] { from_task = molecular_surface_quadrature(mol, kBenchSurface); });
  EXPECT_TRUE(same_bytes(from_task, serial));

  std::vector<SurfaceQuadrature> from_ranks(2);
  mpisim::PersistentPool pool(2);
  mpisim::Runtime::Config config;
  config.ranks = 2;
  pool.run(config, [&](mpisim::Comm& comm) {
    from_ranks[comm.rank()] = molecular_surface_quadrature(mol, kBenchSurface);
    comm.barrier();
  });
  EXPECT_EQ(pool.jobs_served(), 1u);
  for (const SurfaceQuadrature& q : from_ranks) EXPECT_TRUE(same_bytes(q, serial));
}

}  // namespace
}  // namespace gbpol::surface
