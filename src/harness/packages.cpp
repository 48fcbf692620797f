#include "harness/packages.hpp"

#include <stdexcept>
#include <string>

#include "baselines/gbr6_volume.hpp"
#include "baselines/hct.hpp"
#include "baselines/obc.hpp"
#include "baselines/still_empirical.hpp"
#include "core/engine.hpp"
#include "core/naive.hpp"

namespace gbpol::harness {
namespace {

PackageRun from_driver(RunResult&& r, const Prepared& prep) {
  PackageRun run;
  run.energy = r.energy;
  run.modeled_seconds = r.modeled_seconds();
  run.wall_seconds = r.wall_seconds;
  run.memory_bytes = r.replicated_bytes;
  run.born_radii = prep.to_original_order(r.born_sorted);
  return run;
}

PackageRun from_baseline(baselines::BaselineResult&& r) {
  PackageRun run;
  run.energy = r.energy;
  run.modeled_seconds = r.modeled_seconds();
  run.wall_seconds = r.wall_seconds;
  run.memory_bytes = r.memory_bytes;
  run.born_radii = std::move(r.born_radii);
  return run;
}

baselines::BaselineOptions baseline_options(const PackageEnv& env, double cutoff,
                                            int ranks) {
  baselines::BaselineOptions opts;
  opts.cutoff = cutoff;
  opts.ranks = ranks;
  opts.cluster = env.cluster;
  opts.constants = env.constants;
  return opts;
}

}  // namespace

PackageRun run_package(std::string_view name, const Molecule& mol,
                       const surface::SurfaceQuadrature& quad, const Prepared& prep,
                       const PackageEnv& env) {
  if (name == "naive") {
    const NaiveResult r = run_naive(mol, quad, env.constants);
    PackageRun run;
    run.energy = r.energy;
    run.modeled_seconds = r.born_seconds + r.energy_seconds;
    run.wall_seconds = run.modeled_seconds;
    run.memory_bytes = mol.size() * (sizeof(Atom) + sizeof(double)) +
                       quad.size() * (2 * sizeof(Vec3) + sizeof(double));
    run.born_radii = r.born_radii;
    return run;
  }
  const Engine engine(prep, env.approx, env.constants);
  RunOptions options;
  options.cluster = env.cluster;
  if (name == "oct_serial") {
    options.mode = EngineMode::kSerial;
    return from_driver(engine.run(options), prep);
  }
  if (name == "oct_cilk") {
    options.mode = EngineMode::kCilk;
    options.threads_per_rank = env.cores;
    return from_driver(engine.run(options), prep);
  }
  if (name == "oct_mpi") {
    options.mode = EngineMode::kDistributed;
    options.ranks = env.cores;
    return from_driver(engine.run(options), prep);
  }
  if (name == "oct_hybrid") {
    options.mode = EngineMode::kDistributed;
    options.threads_per_rank = std::max(1, env.hybrid_threads);
    options.ranks = std::max(1, env.cores / options.threads_per_rank);
    return from_driver(engine.run(options), prep);
  }
  if (name == "hct_amber") {
    return from_baseline(
        run_hct(mol.atoms(), baseline_options(env, env.amber_cutoff, env.cores)));
  }
  if (name == "hct_gromacs") {
    return from_baseline(
        run_hct(mol.atoms(), baseline_options(env, env.gromacs_cutoff, env.cores)));
  }
  if (name == "obc_namd") {
    return from_baseline(
        run_obc(mol.atoms(), baseline_options(env, env.namd_cutoff, env.cores)));
  }
  if (name == "still_tinker") {
    baselines::StillEmpiricalOptions opts;
    static_cast<baselines::BaselineOptions&>(opts) =
        baseline_options(env, env.tinker_cutoff, 1);
    opts.threads = env.cores;
    return from_baseline(run_still_empirical(mol.atoms(), opts));
  }
  if (name == "gbr6") {
    baselines::BaselineOptions opts = baseline_options(env, env.gbr6_cutoff, 1);
    // The r^-6 kernel weights nearby volume much more than r^-4, so the
    // pairwise-union double counting is weaker: the centered flat scale for
    // the volume-r6 model sits near 1.0 (vs 0.84 for HCT).
    opts.descreen_scale = 1.0;
    return from_baseline(run_gbr6_volume(mol.atoms(), opts));
  }
  throw std::invalid_argument("unknown package: " + std::string(name));
}

}  // namespace gbpol::harness
