// Short-lived host workers for the serial-looking stages of a request: the
// surface march, the planning walks and Prepared::build.
//
// A pass starts its workers when it begins and joins them when it ends; the
// calling thread is one of them. Nothing here uses a caller's thread pool
// (ws::Scheduler, mpisim::PersistentPool), so a pass may run from inside a
// scheduler task or an mpisim rank without deadlocking on the pool it sits
// in. Output determinism is the caller's business: every user claims blocks
// whose results do not depend on which worker computed them, and combines
// them in block order, so results are byte-identical for any worker count.
//
// The worker count is derived, not configured: the CPUs in the calling
// thread's affinity mask (what `nproc` prints), capped by the claimable
// blocks and by a fixed minimum of work per worker, so small inputs stay on
// the caller and never pay for starting threads.
#pragma once

#include <cstddef>
#include <functional>

namespace gbpol::workers {

// CPUs in the calling thread's affinity mask (at least 1).
int affinity_cpus();

// Workers for a pass of `blocks` claimable blocks holding `work` units:
// affinity_cpus(), capped by `blocks` and by work / min_work_per_worker,
// and at least 1.
int count_for(std::size_t blocks, std::size_t work, std::size_t min_work_per_worker);

// Runs `body` once on each of `count` workers: the calling thread plus
// count - 1 threads started for this call. If a thread cannot be started the
// pass runs on the workers that did start, so bodies must claim their work
// (never assume a worker index). Returns after every worker has finished;
// the first exception any body threw is then rethrown to the caller.
void run(int count, const std::function<void()>& body);

// Calls fn(b) once for every block b in [0, blocks), on min(count, blocks)
// workers (see run) claiming blocks from one atomic counter in ascending
// order. Once a block throws, no further block starts, and the first
// exception reaches the caller. Zero blocks start no thread and call nothing.
void for_blocks(int count, std::size_t blocks, const std::function<void(std::size_t)>& fn);

// for_blocks over [0, n) cut into consecutive ranges of `width` items (the
// last one shorter): calls fn(lo, hi) once per range.
void for_ranges(int count, std::size_t n, std::size_t width,
                const std::function<void(std::size_t lo, std::size_t hi)>& fn);

}  // namespace gbpol::workers
