#include "ws/scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <optional>

#include "obs/trace.hpp"
#include "support/timer.hpp"

namespace gbpol::ws {
namespace {
thread_local int tls_worker_id = -1;
thread_local Scheduler* tls_scheduler = nullptr;
// Task nesting depth: tasks executed inside an enclosing task's wait() are
// already inside the outer task's CPU-time window, so only depth-0
// executions accumulate busy time (no double counting).
thread_local int tls_task_depth = 0;
// CPU seconds this thread spent inside the current outermost task's window
// finding no work in TaskGroup::wait (failed sweeps and yields while
// thieves finish its stolen children). Idle, not busy: execute() subtracts
// it from the window it charges.
thread_local double tls_idle_seconds = 0.0;
}  // namespace

TaskGroup::~TaskGroup() {
  assert(pending_.load(std::memory_order_relaxed) == 0 &&
         "TaskGroup destroyed with outstanding tasks");
}

void TaskGroup::wait() {
  assert(Scheduler::in_pool() && "TaskGroup::wait must run on a pool thread");
  auto& self = *sched_.workers_[static_cast<std::size_t>(Scheduler::worker_id())];
  // Open while this wait finds no work; its CPU time is idle time.
  std::optional<ThreadCpuTimer> idle;
  while (pending_.load(std::memory_order_acquire) > 0) {
    if (detail::Task* task = sched_.find_task(self)) {
      if (idle) tls_idle_seconds += idle->seconds();
      idle.reset();
      sched_.execute(task, self);
    } else {
      if (!idle) idle.emplace();
      std::this_thread::yield();
    }
  }
  if (idle) tls_idle_seconds += idle->seconds();
}

Scheduler::Scheduler(int num_workers) {
  const int n = num_workers > 0 ? num_workers : 1;
  creator_rank_ = obs::current_rank();
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    workers_.push_back(std::make_unique<Worker>(0xC0FFEEULL + static_cast<std::uint64_t>(i)));
  threads_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) threads_.emplace_back([this, i] { worker_main(i); });
}

Scheduler::~Scheduler() {
  shutdown_.store(true, std::memory_order_release);
  wake_all();
  for (std::thread& t : threads_) t.join();
}

int Scheduler::worker_id() { return tls_worker_id; }

void Scheduler::run(std::function<void()> root) {
  start(std::move(root));
  join();
}

void Scheduler::start(std::function<void()> root) {
  assert(!in_pool() && "Scheduler::start must not be called from inside the pool");
  root_done_.store(false, std::memory_order_relaxed);
  std::function<void()> fn = std::move(root);
  auto* task = new detail::Task{
      [this, fn = std::move(fn)] {
        fn();
        {
          std::lock_guard<std::mutex> lock(mutex_);
          root_done_.store(true, std::memory_order_release);
        }
        done_cv_.notify_all();
      },
      nullptr};
  {
    std::lock_guard<std::mutex> lock(mutex_);
    injected_.push_back(task);
  }
  work_cv_.notify_one();
}

void Scheduler::join() {
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [this] { return root_done_.load(std::memory_order_acquire); });
}

void Scheduler::spawn(detail::Task* task) {
  const int id = worker_id();
  assert(id >= 0 && tls_scheduler == this && "spawn must come from this pool");
  workers_[static_cast<std::size_t>(id)]->deque.push(task);
  if (idle_.load(std::memory_order_relaxed) > 0) wake_one();
}

detail::Task* Scheduler::find_task(Worker& self) {
  detail::Task* task = nullptr;
  if (self.deque.pop(task)) return task;
  obs::add_pop_miss();

  // Random-victim stealing, one full sweep starting at a random offset.
  const std::size_t n = workers_.size();
  const std::size_t start = self.rng.next_below(n);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t v = (start + k) % n;
    Worker& victim = *workers_[v];
    if (&victim == &self) continue;
    obs::add_steal_attempt();
    if (victim.deque.steal(task)) {
      self.steals.fetch_add(1, std::memory_order_relaxed);
      obs::add_steal_success();
      // Events only materialize for successful steals, as one contiguous
      // triplet in the THIEF's stream: its own pop came up empty, it probed
      // `v`, it won. Spinning idle workers thus cost three relaxed counter
      // bumps per sweep, not trace traffic (the ≤5% on-but-idle budget).
      obs::emit(obs::EventKind::kPopMiss);
      obs::emit(obs::EventKind::kStealAttempt, v);
      obs::emit(obs::EventKind::kStealSuccess, v);
      return task;
    }
  }

  // Injection queue (root tasks). Pop FIFO so roots run in submission order —
  // LIFO here would starve early submissions whenever callers keep injecting.
  std::lock_guard<std::mutex> lock(mutex_);
  if (!injected_.empty()) {
    task = injected_.front();
    injected_.erase(injected_.begin());
    return task;
  }
  return nullptr;
}

void Scheduler::execute(detail::Task* task, Worker& self) {
  const bool outermost = tls_task_depth == 0;
  ++tls_task_depth;
  if (outermost) tls_idle_seconds = 0.0;
  ThreadCpuTimer timer;
  task->fn();
  if (outermost) {
    const double secs = std::max(0.0, timer.seconds() - tls_idle_seconds);
    self.busy_ns.fetch_add(static_cast<std::uint64_t>(secs * 1e9),
                           std::memory_order_relaxed);
  }
  --tls_task_depth;
  self.tasks.fetch_add(1, std::memory_order_relaxed);
  if (task->pending != nullptr)
    task->pending->fetch_sub(1, std::memory_order_acq_rel);
  delete task;
}

void Scheduler::worker_main(int id) {
  tls_worker_id = id;
  tls_scheduler = this;
  obs::set_thread_rank(creator_rank_);
  obs::set_thread_worker(id);
  Worker& self = *workers_[static_cast<std::size_t>(id)];
  int spins = 0;
  while (!shutdown_.load(std::memory_order_acquire)) {
    if (detail::Task* task = find_task(self)) {
      execute(task, self);
      spins = 0;
      continue;
    }
    if (++spins < 64) {
      std::this_thread::yield();
      continue;
    }
    // Park until new work is injected or spawned.
    std::unique_lock<std::mutex> lock(mutex_);
    if (shutdown_.load(std::memory_order_acquire)) break;
    if (!injected_.empty()) continue;  // recheck under the lock
    idle_.fetch_add(1, std::memory_order_relaxed);
    work_cv_.wait_for(lock, std::chrono::milliseconds(2));
    idle_.fetch_sub(1, std::memory_order_relaxed);
    spins = 0;
  }
  tls_worker_id = -1;
  tls_scheduler = nullptr;
}

void Scheduler::wake_one() { work_cv_.notify_one(); }
void Scheduler::wake_all() { work_cv_.notify_all(); }

double Scheduler::Stats::max_busy() const {
  double m = 0.0;
  for (double b : busy_seconds) m = std::max(m, b);
  return m;
}

double Scheduler::Stats::total_busy() const {
  double s = 0.0;
  for (double b : busy_seconds) s += b;
  return s;
}

Scheduler::Stats Scheduler::stats() const {
  Stats st;
  st.busy_seconds.reserve(workers_.size());
  for (const auto& w : workers_) {
    st.tasks_executed += w->tasks.load(std::memory_order_relaxed);
    st.steals += w->steals.load(std::memory_order_relaxed);
    st.busy_seconds.push_back(
        static_cast<double>(w->busy_ns.load(std::memory_order_relaxed)) * 1e-9);
  }
  return st;
}

void Scheduler::reset_stats() {
  for (const auto& w : workers_) {
    w->tasks.store(0, std::memory_order_relaxed);
    w->steals.store(0, std::memory_order_relaxed);
    w->busy_ns.store(0, std::memory_order_relaxed);
  }
}

}  // namespace gbpol::ws
