#!/usr/bin/env bash
# Local CI gate: build every sanitizer preset and run the fast test labels
# (unit, property, checkpoint, balance, owned, integrity, incremental, serve,
# trace) under each, plus repo-wide gates: the removed run_oct_* free
# functions and the superseded distributed paths (the oct_balanced driver,
# the distributed_data ghost-exchange prototype, WorkDivision::kDynamic,
# Comm::charge_rpc, the canonical_reduction opt-in, the legacy checkpoint
# chunking, the kNodeBalanced relay-chain reduction and the second traversal
# knob on ApproxParams with its driver dispatchers, and the oct_cilk
# dual-tree driver) must not reappear
# anywhere (the Engine/Service API
# surface is final; one canonical chunk-fold driver), the Engine drivers
# (src/core/drivers.cpp) must evaluate the interaction walk as it runs and
# never materialize a list (no build_lists / build_interaction_lists call),
# the surface march must be reached only through molecular_surface_quadrature
# outside src/surface/ and tests/, threads may be started in src/ only by the
# work-stealing scheduler, the mpisim runtime and the short-lived worker
# helper (src/support/workers.*), nothing under src/ may call std::terminate
# (a failing rank fails its job, never the process), the balance_stress bench must hold its
# >= 1.3x steal-vs-static makespan target on the median of five interleaved
# reps, the micro_kernels bench
# must hold the >= 2x dispatched-SIMD-vs-SoA target on its gated kernel (and
# records the ratios in bench_out/micro_kernels.json), the approx-math
# primitive accuracy/speed point is refreshed into bench_out/, the
# benchmark's self-tests (perfbench/run.py selftest) pass after the release
# preset, and the
# forced-scalar build (GBPOL_SIMD=OFF preset + GBPOL_SIMD=off env) must pass
# the same test labels so the SoA fallback stays healthy, as must the release
# build with the AVX2 tier pinned (avx2 test preset, GBPOL_SIMD=avx2) so that
# tier stays exercised on hosts whose best tier is AVX-512. The long
# randomized soak campaigns and the coverage gate are opt-in.
#
#   scripts/check.sh             release + asan + tsan presets
#   scripts/check.sh --fast      release preset only
#   scripts/check.sh --soak      also build the soak preset and run `-L soak`
#   scripts/check.sh --coverage  also build the coverage preset, run the fast
#                                labels instrumented, and fail if src/obs/
#                                line coverage drops below 85%
#
# Presets come from CMakePresets.json; each uses its own binary dir
# (build, build-asan, build-tsan, build-soak, build-coverage), so the gate
# never perturbs an existing working tree build.
set -euo pipefail
cd "$(dirname "$0")/.."

PRESETS=(release asan tsan)
RUN_SOAK=0
RUN_COVERAGE=0
for arg in "$@"; do
  case "$arg" in
    --fast) PRESETS=(release) ;;
    --soak) RUN_SOAK=1 ;;
    --coverage) RUN_COVERAGE=1 ;;
    *)
      echo "usage: scripts/check.sh [--fast] [--soak] [--coverage]" >&2
      exit 2
      ;;
  esac
done

JOBS=$(nproc 2>/dev/null || echo 4)

echo "=== grep gate: run_oct_* symbols stay deleted ==="
# The deprecated run_oct_* free functions were removed outright (ISSUE 10:
# the Engine/Service surface is final). Nothing in-tree — facade included —
# may declare, define, or call them ever again.
if grep -rnE 'run_oct_(serial|cilk|distributed)' src bench tests examples 2>/dev/null; then
  echo "check.sh: run_oct_* symbol found in-tree (the API was removed; use Engine::run or gbpol::Service)" >&2
  exit 1
fi

echo "=== grep gate: superseded distributed paths stay deleted ==="
# One canonical chunk-fold driver (detail::oct_canonical) serves replicated
# and owned data, and plain OCT_MPI and hybrid OCT_MPI+CILK run on it, so the
# canonical_reduction opt-in, the legacy checkpoint chunking
# (checkpoint.chunk_leaves) and the hybrid driver's parallel list builders
# and list grain are gone; DataDistribution::kOwned replaced the
# ghost-exchange prototype and BalancePolicy::kSteal replaced the
# shared-counter kDynamic division with its RPC charge. The kNodeBalanced
# division and the relay-chain death recovery of oct_distributed that only
# it ran are gone too: the chunk fold's stripe recovery covers every death,
# and oct_atom_based is the one-thread kAtomBased ablation. RunOptions::traversal
# is the one traversal knob and oct_serial its one reader: ApproxParams lost
# its copy, and the drivers' traversal dispatchers (accumulate_epol,
# finish_epol, epol_energy) and the recursive raw-sum entry point went with
# it. OCT_CILK is the canonical fold at 1 x p, so the oct_cilk driver, its
# pair-frontier tasks and the solvers' dual-tree recursion are gone (the
# "oct_cilk" package label stays). None of them may come back.
if grep -rnE 'oct_balanced|distributed_data|run_oct_data_distributed|WorkDivision::kDynamic|charge_rpc|canonical_reduction|checkpoint\.chunk_leaves|build_lists_parallel|build_interaction_lists_parallel|list_grain|kNodeBalanced|leaf_segments_by_points|kTagBornChain|kTagBornSlice|kTagEpolChain|oct_distributed|Driver::kDistributed|params\.traversal|approx\.traversal|finish_epol\(|accumulate_epol\(|epol_energy\(|accumulate_energy_leaf_range|\boct_cilk\(|detail::oct_cilk|expand_pair_frontier|PoolPhase|dual_subtree|dual_tree|recurse_dual|Driver::kCilk' \
    src bench tests examples 2>/dev/null; then
  echo "check.sh: superseded distributed path found in-tree (use Engine::run; route() picks oct_canonical, or oct_atom_based for kAtomBased)" >&2
  exit 1
fi

echo "=== grep gate: no per-step re-preparation in trajectory workloads ==="
# Trajectory-shaped examples and benches must route step loops through
# TrajectoryDriver (core/incremental.hpp), not rebuild a Prepared per frame.
# Intentional cold baselines carry a trajectory-cold-baseline marker.
if grep -nE 'Prepared::build' \
    examples/minimize.cpp examples/docking_scan.cpp bench/fig_trajectory.cpp 2>/dev/null \
    | grep -v 'trajectory-cold-baseline'; then
  echo "check.sh: unmarked Prepared::build in a trajectory workload (use TrajectoryDriver, or mark an intentional cold baseline with trajectory-cold-baseline)" >&2
  exit 1
fi

echo "=== grep gate: Engine drivers evaluate during the walk ==="
# Every Engine pass (serial, canonical chunks, hybrid chunks, the kAtomBased
# ablation, owned recovery pre-passes) evaluates each list entry the moment the
# opening-criterion walk reaches it (BornSolver::accumulate_walk,
# EpolSolver::accumulate_energy_walk, or a walk_interactions visitor).
# Materialized lists are for consumers that reuse them (TrajectoryDriver,
# micro benches, tests), so the drivers may not build one.
if grep -nE 'build_lists\(|build_interaction_lists\(' src/core/drivers.cpp; then
  echo "check.sh: list build in src/core/drivers.cpp (evaluate during the walk:" \
    "accumulate_walk / accumulate_energy_walk / walk_interactions)" >&2
  exit 1
fi

echo "=== grep gate: one surface path ==="
# molecular_surface_quadrature is the one entry point to the surface march:
# it runs the parallel plane walker (march_planes) and builds each plane's
# quadrature as the plane is polygonized. march_tetrahedra, march_planes and
# quadrature_from_mesh (the whole-mesh composition) stay inside src/surface/
# and tests/, so Service, TrajectoryDriver, the examples, the benches and
# perfbench cannot grow a second surface path beside it.
if grep -rnE 'march_tetrahedra\(|march_planes\(|quadrature_from_mesh\(' src bench examples perfbench 2>/dev/null \
    | grep -v '^src/surface/'; then
  echo "check.sh: surface march outside src/surface/ and tests/ (call surface::molecular_surface_quadrature)" >&2
  exit 1
fi

echo "=== grep gate: one worker idiom ==="
# Host stages that run on every core (the surface march, the planning walks,
# Prepared::build) start their threads through workers::run / for_blocks
# (src/support/workers.*): one place derives the count from the affinity
# mask, falls back when a thread cannot start, joins, and rethrows. Only the
# work-stealing scheduler (src/ws/) and the simulated cluster's rank threads
# (src/mpisim/) own threads besides it.
if grep -rnE 'std::j?thread\b' src 2>/dev/null \
    | grep -vE 'std::thread::(hardware_concurrency|id)\b' \
    | grep -vE '^src/(ws|mpisim)/|^src/support/workers\.(hpp|cpp):'; then
  echo "check.sh: std::thread / std::jthread outside src/ws/, src/mpisim/ and src/support/workers.* (use workers::run or workers::for_blocks)" >&2
  exit 1
fi

echo "=== grep gate: a failing rank fails its job, never the process ==="
# One job body (src/mpisim/pool.cpp) runs every mpisim job, and a rank that
# throws fails that job: the plain collectives throw mpisim::CommFailure and
# run() rethrows to the caller. Nothing under src/ may end the process
# instead.
if grep -rn 'std::terminate' src 2>/dev/null; then
  echo "check.sh: std::terminate under src/ (throw; a failing rank fails its job, never the process)" >&2
  exit 1
fi

for preset in "${PRESETS[@]}"; do
  echo "=== ${preset}: configure + build ==="
  cmake --preset "${preset}"
  cmake --build --preset "${preset}" -j "${JOBS}"
  echo "=== ${preset}: ctest (unit|property|checkpoint|balance|owned|integrity|incremental|serve|trace) ==="
  ctest --preset "${preset}" -L 'unit|property|checkpoint|balance|owned|integrity|incremental|serve|trace' -j "${JOBS}"
  if [[ "${preset}" == release ]]; then
    echo "=== perfbench selftest: benchmark answer checks (release) ==="
    # Builds perfbench/ into .bench_build/ and runs its C++ and Python
    # self-tests, including the 0-ulp owned-vs-replicated answer checks the
    # benchmark applies to every served request.
    python3 perfbench/run.py selftest
  fi
done

echo "=== balance_stress: skew-bench smoke run (release build) ==="
# Runs the 8-rank balance A/B five times, interleaved; the binary itself fails
# unless the three policies agree to the bit on every rep AND the median
# kSteal-vs-kStatic makespan ratio is >= 1.3x.
(cd build/bench && ./balance_stress)

echo "=== fig_memory_scaling: owned-mode footprint self-gate (release build) ==="
# Owned-vs-replicated per-rank footprint at P = 1..8 on a >= 50k-point
# molecule; writes bench_out/memory_scaling.json and exits non-zero unless
# every point matches the replicated canonical energy to the bit AND the
# 8-rank ratio holds the <= 0.35x acceptance target.
(cd build/bench && ./fig_memory_scaling)

echo "=== fig_trajectory: incremental-vs-cold amortization self-gate (release build) ==="
# ~10k-atom receptor/ligand complex, ligand jiggling below the skin margin;
# writes bench_out/trajectory.json and exits non-zero unless every frame is
# 0-ulp identical between ReuseMode::kIncremental and kCold AND the median
# incremental step costs <= 25% of the median cold re-preparation step.
(cd build/bench && ./fig_trajectory)

echo "=== fig_serving: batched+cached serving self-gate (release build) ==="
# Multi-tenant request mix (cold, exact repeats, jittered poses) through
# gbpol::Service vs the per-request cold baseline; writes
# bench_out/serving.json and exits non-zero unless every served energy is
# 0-ulp against its path-appropriate twin (direct cold run, or the mirror
# kCold TrajectoryDriver for delta routes) AND batched+cached throughput
# holds the >= 3x acceptance target.
(cd build/bench && ./fig_serving)

echo "=== micro_kernels: SIMD-vs-SoA self-gate (release build) ==="
# --benchmark_filter matching nothing skips the google-benchmark timings;
# only the kernel A/B + JSON + gate path runs. The binary exits non-zero if
# the gated kernel (epol_near_exact) on the dispatched tier runs below 2x over
# SoA; on a host without AVX2 the gate self-skips (dispatch falls back to
# SoA). Every available tier's ratio is recorded in the JSON.
(cd build/bench && ./micro_kernels --benchmark_filter='^$')

echo "=== ablation_approx_math: primitive accuracy/speed point (fast mode) ==="
# Records the scalar fast_* vs SIMD rsqrt-Newton/exp accuracy and throughput
# to bench_out/ablation_math_primitives.json without the molecule suite.
(cd build/bench && GBPOL_ABLATION_FAST=1 ./ablation_approx_math)

echo "=== avx2: release build with the AVX2 tier pinned ==="
# GBPOL_SIMD=avx2 (set by the avx2 test preset) pins the AVX2 tier even where
# the CPU would dispatch AVX-512, so both explicit tiers pass the tier-1
# labels on such hosts. Reuses the release build tree.
ctest --preset avx2 -L 'unit|property|checkpoint|balance|owned|integrity|incremental|serve|trace' -j "${JOBS}"

echo "=== scalar: forced-SoA fallback build + tests ==="
# GBPOL_SIMD=OFF at configure time compiles the stub TUs (no AVX2 or AVX-512
# code in the binary); GBPOL_SIMD=off in the test environment (set by the preset) also
# exercises the runtime override. Together they prove the fallback path
# passes the same tier-1 labels as the dispatched build.
cmake --preset scalar
cmake --build --preset scalar -j "${JOBS}"
ctest --preset scalar -L 'unit|property|checkpoint|balance|owned|integrity|incremental|serve|trace' -j "${JOBS}"

if [[ ${RUN_SOAK} -eq 1 ]]; then
  echo "=== soak: configure + build ==="
  cmake --preset soak
  cmake --build --preset soak -j "${JOBS}"
  echo "=== soak: ctest (-L soak) ==="
  ctest --preset soak
fi

if [[ ${RUN_COVERAGE} -eq 1 ]]; then
  echo "=== coverage: configure + build (instrumented) ==="
  cmake --preset coverage
  cmake --build --preset coverage -j "${JOBS}"
  echo "=== coverage: ctest (unit|property|checkpoint|balance|owned|integrity|incremental|serve|trace) ==="
  ctest --preset coverage -L 'unit|property|checkpoint|balance|owned|integrity|incremental|serve|trace' -j "${JOBS}"
  echo "=== coverage: src/obs line-coverage gate (>= 85%) ==="
  scripts/coverage.sh build-coverage 85
fi

echo "check.sh: all requested presets passed"
