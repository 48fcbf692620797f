// End-to-end GB polarization-energy drivers — the implementations compared
// throughout the paper's evaluation:
//
//   OCT_SERIAL    — single-threaded reference of the octree approximation
//   OCT_CILK      — shared-memory dual-tree algorithm of [6]/[7] over the
//                   work-stealing scheduler (paper's cilk++ implementation)
//   OCT_MPI       — Fig. 4 with P ranks, 1 thread each (pure distributed)
//   OCT_MPI+CILK  — Fig. 4 with P ranks x p worker threads (hybrid)
//
// Every driver returns the energy, the Born radii, and a timing breakdown:
// measured CPU seconds for compute, modeled seconds for communication, and
// the modeled cluster makespan (see mpisim/runtime.hpp for the model).
#pragma once

#include <cstdint>
#include <vector>

#include "core/born_octree.hpp"
#include "core/epol_octree.hpp"
#include "core/prepared.hpp"
#include "core/workdiv.hpp"
#include "mpisim/cluster.hpp"
#include "mpisim/faults.hpp"
#include "support/error_class.hpp"

namespace gbpol {

namespace mpisim {
class PersistentPool;
}

struct RunConfig {
  int ranks = 1;
  int threads_per_rank = 1;
  mpisim::ClusterModel cluster = mpisim::ClusterModel::lonestar4();
  WorkDivision division = WorkDivision::kNodeNode;
  // Deterministic fault schedule replayed by the runtime (empty = fault-free).
  // Death recovery (degraded mode) is supported for kNodeBalanced with
  // threads_per_rank == 1 — the bit-deterministic configuration here, where
  // survivors can reproduce a dead rank's partial results exactly (one-thread
  // kNodeNode runs the canonical chunk fold instead). Other configurations
  // fail fast on death (the runtime terminates, as a real MPI job would).
  mpisim::FaultPlan faults;
  // Supervisor watchdog: heartbeat-stagnation bound after which a stalled
  // rank is converted into a death (mpisim/runtime.hpp). <= 0 disables.
  double stall_timeout_seconds = 0.0;
  // Silent-corruption injection schedule and the integrity-guard master
  // switch (mpisim/faults.hpp). Guards OFF is canary-test only.
  mpisim::CorruptionPlan corruption;
  bool integrity_guards = true;
  // Persistent rank-thread pool (mpisim/pool.hpp): non-null routes the
  // distributed run onto resident worker threads (the serving layer's
  // amortized rank setup); null spawns per-run threads as before. Results
  // are bit-identical either way.
  mpisim::PersistentPool* pool = nullptr;
};

// The one-per-mode free-function drivers that predated the facade were
// deprecated in PR 5 and are now REMOVED: gbpol::Engine (core/engine.hpp)
// and gbpol::Service (serve/service.hpp) are the whole public API.
// scripts/check.sh gates the old symbol names out of the tree.

}  // namespace gbpol
