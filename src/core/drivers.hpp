// End-to-end GB polarization-energy drivers — the implementations compared
// throughout the paper's evaluation:
//
//   OCT_SERIAL    — single-threaded reference of the octree approximation
//   OCT_CILK      — one rank of p worker threads (1 x p): the chunk fold of
//                   OCT_MPI on the work-stealing scheduler (paper's cilk++
//                   implementation)
//   OCT_MPI       — Fig. 4 with P ranks, 1 thread each (pure distributed)
//   OCT_MPI+CILK  — Fig. 4 with P ranks x p worker threads (hybrid): the
//                   same chunk fold as OCT_MPI, each rank running its chunks
//                   on a rank-local work-stealing pool
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

}  // namespace gbpol
