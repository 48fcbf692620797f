#include "mpisim/pool.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>

#include "mpisim/shared_state.hpp"
#include "obs/trace.hpp"
#include "support/timer.hpp"

namespace gbpol::mpisim {

// Everything one job needs, owned by run() for its duration. Workers only
// ever touch it between the epoch handshake and their done signal, both of
// which run() orders around the job's lifetime.
struct PersistentPool::Job {
  Job(const Runtime::Config& config, int ranks,
      const std::function<void(Comm&)>& fn)
      : shared(config.cluster, ranks, std::max(1, config.threads_per_rank),
               config.faults, config.recv_watchdog_seconds, config.kill,
               config.corruption, config.integrity_guards),
        rank_fn(fn) {
    report.ranks.resize(static_cast<std::size_t>(ranks));
    if (config.stall_timeout_seconds > 0.0)
      supervisor = std::thread([this, timeout = config.stall_timeout_seconds] {
        supervise(timeout);
      });
  }
  ~Job() { stop_supervisor(); }

  void run_rank(int rank);
  void fail(int rank, const char* what);
  void supervise(double timeout);
  void stop_supervisor() {
    finished.store(true, std::memory_order_release);
    if (supervisor.joinable()) supervisor.join();
  }

  SharedState shared;
  RunReport report;
  const std::function<void(Comm&)>& rank_fn;
  // First non-RankKilled exception thrown by any rank of this job; run()
  // rethrows it to its caller after the job drains. Written under
  // error_mutex (ranks fail concurrently), read after the done handshake.
  std::mutex error_mutex;
  std::exception_ptr error;
  std::atomic<bool> finished{false};  // stops the supervisor
  std::thread supervisor;             // declared last: it reads the above
};

// The per-rank step. A scheduled death or a kill (RankKilled) has already
// retired the rank through Comm::die_now; any other exception fails the job.
void PersistentPool::Job::run_rank(int rank) {
  obs::set_thread_rank(rank);
  Comm comm(shared, rank);
  RankResult& res = report.ranks[static_cast<std::size_t>(rank)];
  try {
    rank_fn(comm);
  } catch (const RankKilled&) {
    res.died = true;
  } catch (const std::exception& e) {
    fail(rank, e.what());
  } catch (...) {
    fail(rank, "unknown exception");
  }
  obs::phase_end();  // close a phase left open by a mid-phase unwind
  res.compute_seconds = comm.compute_seconds();
  res.straggler_seconds = comm.straggler_seconds();
  res.comm_seconds = comm.comm_seconds();
  res.bytes_sent = comm.bytes_sent();
  res.retries = comm.retries();
  res.redistributed_work_items = comm.redistributed_work();
  res.migrated_chunks = comm.migrated_chunks();
  res.corruption_injected = comm.corruption_injected();
  res.corruption_detected = comm.corruption_detected();
  res.corruption_recomputed = comm.corruption_recomputed();
  res.corruption_retransmits = comm.corruption_retransmits();
  obs::set_thread_rank(-1);
}

// Called from run_rank's handlers. The job is doomed (run() will rethrow),
// so raise kill_all: the surviving ranks abandon at their next poll or
// collective entry instead of finishing work nobody will read. Then retire
// this rank as a death would, so no peer waits on it.
void PersistentPool::Job::fail(int rank, const char* what) {
  std::fprintf(stderr, "mpisim: rank %d failed: %s\n", rank, what);
  {
    std::lock_guard<std::mutex> lock(error_mutex);
    if (!error) error = std::current_exception();
  }
  shared.raise_kill();
  shared.retire(rank);
  report.ranks[static_cast<std::size_t>(rank)].died = true;
}

// Supervisor watchdog: samples the per-rank heartbeats and converts any
// live rank whose logical clock stagnates past the timeout. Actuation is
// via the stall_break flag, which only a rank parked in the stall state
// reacts to, so a rank legitimately blocked at a barrier (also stagnant)
// is never harmed by the conversion attempt.
void PersistentPool::Job::supervise(double timeout) {
  using clock = std::chrono::steady_clock;
  const auto period = std::chrono::duration<double>(std::min(timeout / 4.0, 0.05));
  const auto ranks = static_cast<std::size_t>(shared.ranks);
  std::vector<std::uint64_t> last(ranks, 0);
  std::vector<clock::time_point> since(ranks, clock::now());
  while (!finished.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(period);
    const auto now = clock::now();
    for (std::size_t i = 0; i < ranks; ++i) {
      if (shared.is_dead(static_cast<int>(i))) {
        since[i] = now;
        continue;
      }
      const std::uint64_t hb = shared.heartbeat[i].load(std::memory_order_relaxed);
      if (hb != last[i]) {
        last[i] = hb;
        since[i] = now;
        continue;
      }
      if (std::chrono::duration<double>(now - since[i]).count() < timeout) continue;
      std::lock_guard<std::mutex> lock(shared.stall_mutex);
      shared.stall_break[i].store(true, std::memory_order_release);
      shared.stall_cv.notify_all();
    }
  }
}

PersistentPool::PersistentPool(int ranks) : ranks_(std::max(1, ranks)) {
  threads_.reserve(static_cast<std::size_t>(ranks_));
  for (int r = 0; r < ranks_; ++r)
    threads_.emplace_back([this, r] { worker_main(r); });
}

PersistentPool::~PersistentPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void PersistentPool::worker_main(int rank) {
  std::uint64_t seen_epoch = 0;
  while (true) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] { return shutdown_ || job_epoch_ != seen_epoch; });
      if (shutdown_) return;
      seen_epoch = job_epoch_;
      job = job_;
    }
    job->run_rank(rank);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++workers_done_;
    }
    done_cv_.notify_all();
  }
}

RunReport PersistentPool::run(const Runtime::Config& config,
                              const std::function<void(Comm&)>& rank_fn) {
  if (std::max(1, config.ranks) != ranks_) return Runtime::run(config, rank_fn);

  Job job(config, ranks_, rank_fn);
  obs::emit(obs::EventKind::kRunBegin, static_cast<std::uint64_t>(ranks_));
  WallTimer wall;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_ = &job;
    workers_done_ = 0;
    ++job_epoch_;
  }
  work_cv_.notify_all();
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] { return workers_done_ == ranks_; });
    job_ = nullptr;
  }
  // "Merge at finalize": the done handshake above orders every rank's metric
  // slot writes before these reads and before stop_session's drain.
  RunReport& report = job.report;
  for (int r = 0; r < ranks_; ++r) {
    const RankResult& res = report.ranks[static_cast<std::size_t>(r)];
    obs::record_rank_totals(r, res.compute_seconds, res.straggler_seconds,
                            res.comm_seconds, res.bytes_sent, res.retries,
                            res.redistributed_work_items);
  }
  obs::emit(obs::EventKind::kRunEnd, static_cast<std::uint64_t>(ranks_));
  job.stop_supervisor();
  report.wall_seconds = wall.seconds();
  for (const RankResult& r : report.ranks) {
    report.retries += r.retries;
    report.redistributed_work_items += r.redistributed_work_items;
    report.migrated_chunks += r.migrated_chunks;
    report.corruption_injected += r.corruption_injected;
    report.corruption_detected += r.corruption_detected;
    report.corruption_recomputed += r.corruption_recomputed;
    report.corruption_retransmits += r.corruption_retransmits;
    report.degraded = report.degraded || r.died;
  }
  report.killed = job.shared.kill_all.load(std::memory_order_acquire);
  report.stalls_converted = job.shared.stalls_converted.load(std::memory_order_relaxed);
  if (report.killed || report.degraded) {
    report.error_class = report.stalls_converted > 0 ? ErrorClass::kTimeout
                                                     : ErrorClass::kFault;
  }
  jobs_served_.fetch_add(1, std::memory_order_relaxed);
  // The pool stays healthy after a failed job: per-job SharedState, and the
  // resident threads are already parked for the next one.
  if (job.error) std::rethrow_exception(job.error);
  return std::move(report);
}

}  // namespace gbpol::mpisim
