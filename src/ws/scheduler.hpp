// Work-stealing task scheduler — the repository's stand-in for the cilk++
// runtime the paper uses inside each compute node.
//
// Semantics:
//  * `Scheduler::run(fn)` submits fn as a root task and blocks the calling
//    (non-pool) thread until fn and everything it spawned have finished.
//  * Inside the pool, `TaskGroup::run(f)` spawns f onto the current worker's
//    deque and `TaskGroup::wait()` syncs, executing pending work while it
//    waits (help-first, like cilk's sync).
//  * Thieves pick a random victim and steal the OLDEST task (top of the
//    victim's deque), the cilk++ discipline §IV-A describes.
//
// Instrumentation: per-worker busy seconds (thread CPU time spent executing
// tasks, less the time a task's TaskGroup::wait spends finding no work),
// task and steal counts. Busy time feeds the cluster makespan model:
// max-over-workers busy time is what a p-core node would have needed for the
// phase (see DESIGN.md).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "support/rng.hpp"
#include "ws/deque.hpp"

namespace gbpol::ws {

class Scheduler;

namespace detail {
struct Task {
  std::function<void()> fn;
  std::atomic<std::size_t>* pending = nullptr;  // owning TaskGroup's counter
};
}  // namespace detail

class TaskGroup {
 public:
  explicit TaskGroup(Scheduler& sched) : sched_(sched) {}
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;
  // All spawned tasks must be waited for before destruction.
  ~TaskGroup();

  // Spawns f to run asynchronously. Must be called from a pool thread.
  template <typename F>
  void run(F&& f);

  // Blocks until every task spawned through this group has finished,
  // executing available work in the meantime. Must be called from the pool.
  void wait();

 private:
  Scheduler& sched_;
  std::atomic<std::size_t> pending_{0};
};

class Scheduler {
 public:
  explicit Scheduler(int num_workers);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  int num_workers() const { return static_cast<int>(workers_.size()); }

  // Runs `root` on the pool and blocks until it (and all tasks it spawned
  // and waited for) completes. Must be called from OUTSIDE the pool.
  void run(std::function<void()> root);
  // run() in two halves: start() submits `root` and returns at once, so the
  // caller can work alongside the pool; join() blocks until it completes.
  // Every start() must be joined before the next.
  void start(std::function<void()> root);
  void join();

  // Id of the current pool thread in [0, num_workers), or -1 outside.
  static int worker_id();
  static bool in_pool() { return worker_id() >= 0; }

  struct Stats {
    std::uint64_t tasks_executed = 0;
    std::uint64_t steals = 0;
    std::vector<double> busy_seconds;  // per worker

    double max_busy() const;
    double total_busy() const;
  };
  Stats stats() const;
  void reset_stats();

 private:
  friend class TaskGroup;

  struct Worker {
    ChaseLevDeque<detail::Task*> deque;
    Rng rng;
    std::atomic<std::uint64_t> tasks{0};
    std::atomic<std::uint64_t> steals{0};
    // Busy nanoseconds; atomic so stats() can read while workers run.
    std::atomic<std::uint64_t> busy_ns{0};

    explicit Worker(std::uint64_t seed) : rng(seed) {}
  };

  void spawn(detail::Task* task);
  detail::Task* find_task(Worker& self);
  void execute(detail::Task* task, Worker& self);
  void worker_main(int id);
  void wake_one();
  void wake_all();

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;
  // Simulated rank of the thread that built this pool (-1 outside mpisim);
  // workers inherit it so their trace events land in the owning rank's
  // timeline (obs::set_thread_rank).
  int creator_rank_ = -1;

  // Root-task injection + parking.
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<detail::Task*> injected_;
  std::atomic<int> idle_ = 0;
  std::atomic<bool> shutdown_{false};

  // Root completion handshake.
  std::atomic<bool> root_done_{false};
};

template <typename F>
void TaskGroup::run(F&& f) {
  pending_.fetch_add(1, std::memory_order_relaxed);
  auto* task = new detail::Task{std::forward<F>(f), &pending_};
  sched_.spawn(task);
}

}  // namespace gbpol::ws
