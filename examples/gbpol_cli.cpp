// Command-line front end: compute the GB polarization energy (and
// optionally Born radii / gradients) of a structure file with any of the
// library's solvers.
//
// Usage:
//   gbpol_cli [options] [structure.{xyzqr,pqr}]
//
// Options:
//   --driver NAME     naive | serial | cilk | mpi | hybrid | owned     [serial]
//   --eps X           approximation parameter for both phases          [0.9]
//   --cores N         modeled cores (ranks/threads per driver)         [12]
//   --leaf N          octree leaf capacity                             [32]
//   --grid H          surface grid spacing, Angstrom                   [1.5]
//   --r4              use the r^4 (Coulomb-field) Born kernel
//   --approx-math     fast rsqrt/exp kernels
//   --dipole          dipole far-field correction
//   --born            print per-atom Born radii
//   --grad            print the max-norm energy gradient
//   --synthetic N     ignore the file, generate an N-atom protein
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/engine.hpp"
#include "core/forces.hpp"
#include "core/naive.hpp"
#include "molecule/generate.hpp"
#include "molecule/io.hpp"
#include "surface/quadrature.hpp"

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--driver naive|serial|cilk|mpi|hybrid|owned] [--eps X]\n"
               "          [--cores N] [--leaf N] [--grid H] [--r4] [--approx-math]\n"
               "          [--dipole] [--born] [--grad] [--synthetic N] [file.{xyzqr,pqr}]\n",
               argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gbpol;

  std::string driver = "serial";
  std::string path;
  double eps = 0.9, grid = 1.5;
  int cores = 12;
  std::uint32_t leaf = 32;
  std::size_t synthetic = 0;
  bool r4 = false, approx_math = false, dipole = false, want_born = false,
       want_grad = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--driver") driver = next();
    else if (arg == "--eps") eps = std::atof(next());
    else if (arg == "--cores") cores = std::atoi(next());
    else if (arg == "--leaf") leaf = static_cast<std::uint32_t>(std::atoi(next()));
    else if (arg == "--grid") grid = std::atof(next());
    else if (arg == "--synthetic") synthetic = std::strtoul(next(), nullptr, 10);
    else if (arg == "--r4") r4 = true;
    else if (arg == "--approx-math") approx_math = true;
    else if (arg == "--dipole") dipole = true;
    else if (arg == "--born") want_born = true;
    else if (arg == "--grad") want_grad = true;
    else if (arg == "--help" || arg == "-h") usage(argv[0]);
    else if (!arg.empty() && arg[0] == '-') usage(argv[0]);
    else path = arg;
  }

  Molecule mol;
  try {
    if (synthetic > 0) {
      mol = molgen::synthetic_protein(synthetic, 42);
    } else if (path.empty()) {
      usage(argv[0]);
    } else if (path.size() > 4 && path.substr(path.size() - 4) == ".pqr") {
      mol = read_pqr_file(path);
    } else {
      mol = read_xyzqr_file(path);
    }
  } catch (const IoError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::printf("molecule: %s, %zu atoms, net charge %+.3f e\n", mol.name().c_str(),
              mol.size(), mol.net_charge());

  const auto quad = surface::molecular_surface_quadrature(
      mol, {.grid_spacing = grid, .dunavant_degree = 2, .kappa = 2.3});
  const Prepared prep = Prepared::build(mol, quad, leaf);
  std::printf("surface: %zu quadrature points; octrees built in %.3f s\n", quad.size(),
              prep.build_seconds);

  ApproxParams params;
  params.eps_born = params.eps_epol = eps;
  params.approx_math = approx_math;
  params.born_dipole_correction = dipole;
  if (r4) params.radius_kernel = RadiusKernel::kR4;
  const GBConstants constants;

  double energy = 0.0;
  double modeled = 0.0;
  std::vector<double> born_sorted;
  if (driver == "naive") {
    const NaiveResult r = run_naive(mol, quad, constants);
    energy = r.energy;
    modeled = r.born_seconds + r.energy_seconds;
    born_sorted.resize(mol.size());
    for (std::uint32_t slot = 0; slot < mol.size(); ++slot)
      born_sorted[slot] = r.born_radii[prep.atoms_tree.original_index(slot)];
  } else if (driver == "serial" || driver == "cilk" || driver == "mpi" ||
             driver == "hybrid" || driver == "owned") {
    const Engine engine(prep, params, constants);
    RunOptions options;
    if (driver == "serial") {
      options.mode = EngineMode::kSerial;
    } else if (driver == "cilk") {
      options.mode = EngineMode::kCilk;
      options.threads_per_rank = cores;
    } else {
      options.mode = EngineMode::kDistributed;
      options.threads_per_rank = driver == "hybrid" ? 6 : 1;
      options.ranks = std::max(1, cores / options.threads_per_rank);
      // owned: the mpi shape with ranks holding leaf ranges plus halos.
      if (driver == "owned") options.distribution = DataDistribution::kOwned;
    }
    const RunResult r = engine.run(options);
    energy = r.energy;
    modeled = r.modeled_seconds();
    born_sorted = r.born_sorted;
  } else {
    usage(argv[0]);
  }

  std::printf("\nE_pol = %.6f kcal/mol   (driver %s, eps %.2f, modeled %.4f s)\n",
              energy, driver.c_str(), eps, modeled);

  if (want_born && !born_sorted.empty()) {
    const auto born = prep.to_original_order(born_sorted);
    std::printf("\n# atom  born_radius\n");
    for (std::size_t i = 0; i < born.size(); ++i)
      std::printf("%zu %.6f\n", i, born[i]);
  }
  if (want_grad && !born_sorted.empty()) {
    const EpolSolver epol(prep, born_sorted, params, constants);
    const EpolGradientSolver grad_solver(prep, born_sorted, epol, constants);
    const auto grad = grad_solver.gradient_all();
    double max_norm = 0.0;
    std::size_t arg = 0;
    for (std::size_t i = 0; i < grad.size(); ++i) {
      if (norm(grad[i]) > max_norm) {
        max_norm = norm(grad[i]);
        arg = i;
      }
    }
    std::printf("max |dE/dx| = %.6f kcal/mol/A at atom %zu\n", max_norm, arg);
  }
  return 0;
}
