// Persistent rank-thread pool: the one place an mpisim job runs.
//
// A PersistentPool keeps `ranks` worker threads alive across jobs. Each
// run() builds a fresh per-job SharedState (collective sequence numbers,
// fault schedules and kill flags are per job), wakes the workers, and blocks
// until they all finish the job. The job body — the per-rank step, the
// supervisor watchdog and the report finalize — is written once, here:
// Runtime::run is a one-shot pool, so a job on a service's resident threads
// returns a bit-identical RunReport to a job on fresh threads with the same
// Config and rank function, and fails the same way (runtime.hpp, "Failure
// contract"). The only thing a long-lived pool amortizes is thread creation
// and teardown.
//
// A job whose Config::ranks differs from the pool width cannot reuse the
// resident threads; run() transparently falls back to Runtime::run so
// callers never need to special-case pool shape. run_on(pool, ...) is the
// routing helper the drivers call: nullptr pool means plain Runtime::run.
//
// Threading contract: run() may be called from one thread at a time (the
// service serializes dispatch); worker threads are joined by the destructor.
// A rank that dies or throws ends the worker's JOB, not the worker thread:
// the thread parks again and serves the next job. This is what lets the
// multi-tenant service quarantine one bad request instead of losing every
// tenant's queued work.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "mpisim/runtime.hpp"

namespace gbpol::mpisim {

class PersistentPool {
 public:
  explicit PersistentPool(int ranks);
  ~PersistentPool();

  PersistentPool(const PersistentPool&) = delete;
  PersistentPool& operator=(const PersistentPool&) = delete;

  int ranks() const { return ranks_; }
  // Jobs executed on the resident threads (fallback runs not counted).
  std::uint64_t jobs_served() const {
    return jobs_served_.load(std::memory_order_relaxed);
  }

  // Runtime::run's contract, on the resident threads. Falls back to a
  // one-shot Runtime::run when config.ranks does not match the pool width.
  RunReport run(const Runtime::Config& config,
                const std::function<void(Comm&)>& rank_fn);

 private:
  struct Job;  // per-job shared state, report, supervisor and rank function

  void worker_main(int rank);

  const int ranks_;
  std::vector<std::thread> threads_;
  std::atomic<std::uint64_t> jobs_served_{0};

  std::mutex mutex_;
  std::condition_variable work_cv_;   // workers wait for a new job epoch
  std::condition_variable done_cv_;   // run() waits for the job to drain
  std::uint64_t job_epoch_ = 0;       // bumped per dispatched job
  bool shutdown_ = false;
  Job* job_ = nullptr;                // valid while a job is in flight
  int workers_done_ = 0;              // ranks finished with the current job
};

// Routing helper for the drivers: a null pool (or a shape mismatch, handled
// inside run()) degrades to the classic one-shot Runtime::run.
inline RunReport run_on(PersistentPool* pool, const Runtime::Config& config,
                        const std::function<void(Comm&)>& rank_fn) {
  return pool != nullptr ? pool->run(config, rank_fn)
                         : Runtime::run(config, rank_fn);
}

}  // namespace gbpol::mpisim
