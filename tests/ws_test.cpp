// Work-stealing substrate: Chase-Lev deque semantics, scheduler fork-join,
// deterministic reductions, instrumentation.
#include "ws/scheduler.hpp"

#include <atomic>
#include <chrono>
#include <cmath>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "support/timer.hpp"
#include "ws/deque.hpp"
#include "ws/parallel_for.hpp"

namespace gbpol::ws {
namespace {

TEST(DequeTest, OwnerLifoOrder) {
  ChaseLevDeque<int*> dq;
  int items[3] = {1, 2, 3};
  for (int& i : items) dq.push(&i);
  int* out = nullptr;
  ASSERT_TRUE(dq.pop(out));
  EXPECT_EQ(*out, 3);  // LIFO for the owner
  ASSERT_TRUE(dq.pop(out));
  EXPECT_EQ(*out, 2);
  ASSERT_TRUE(dq.pop(out));
  EXPECT_EQ(*out, 1);
  EXPECT_FALSE(dq.pop(out));
  EXPECT_TRUE(dq.empty());
}

TEST(DequeTest, ThiefTakesOldest) {
  ChaseLevDeque<int*> dq;
  int items[3] = {1, 2, 3};
  for (int& i : items) dq.push(&i);
  int* out = nullptr;
  ASSERT_TRUE(dq.steal(out));
  EXPECT_EQ(*out, 1);  // FIFO for thieves (the paper's LRU-steal property)
  ASSERT_TRUE(dq.steal(out));
  EXPECT_EQ(*out, 2);
}

TEST(DequeTest, GrowthPreservesContents) {
  ChaseLevDeque<std::intptr_t> dq(4);  // force several growths
  for (std::intptr_t i = 1; i <= 1000; ++i) dq.push(i);
  std::intptr_t sum = 0, out = 0;
  while (dq.pop(out)) sum += out;
  EXPECT_EQ(sum, 1000 * 1001 / 2);
}

TEST(DequeTest, ConcurrentStealersLoseNothing) {
  ChaseLevDeque<std::intptr_t> dq(8);
  constexpr std::intptr_t kN = 20000;
  std::atomic<std::intptr_t> stolen_sum{0};
  std::atomic<bool> done{false};

  std::vector<std::thread> thieves;
  for (int t = 0; t < 3; ++t) {
    thieves.emplace_back([&] {
      std::intptr_t out;
      while (!done.load(std::memory_order_acquire)) {
        if (dq.steal(out)) stolen_sum.fetch_add(out, std::memory_order_relaxed);
      }
      while (dq.steal(out)) stolen_sum.fetch_add(out, std::memory_order_relaxed);
    });
  }

  std::intptr_t own_sum = 0;
  for (std::intptr_t i = 1; i <= kN; ++i) {
    dq.push(i);
    if (i % 3 == 0) {
      std::intptr_t out;
      if (dq.pop(out)) own_sum += out;
    }
  }
  std::intptr_t out;
  while (dq.pop(out)) own_sum += out;
  done.store(true, std::memory_order_release);
  for (auto& t : thieves) t.join();

  EXPECT_EQ(own_sum + stolen_sum.load(), kN * (kN + 1) / 2);
}

TEST(SchedulerTest, RunsRootTask) {
  Scheduler sched(4);
  std::atomic<int> hits{0};
  sched.run([&] { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 1);
}

TEST(SchedulerTest, WorkerIdInsidePool) {
  Scheduler sched(3);
  EXPECT_EQ(Scheduler::worker_id(), -1);
  EXPECT_FALSE(Scheduler::in_pool());
  int id = -2;
  sched.run([&] { id = Scheduler::worker_id(); });
  EXPECT_GE(id, 0);
  EXPECT_LT(id, 3);
}

TEST(SchedulerTest, SpawnAndSync) {
  Scheduler sched(4);
  std::atomic<int> sum{0};
  sched.run([&] {
    TaskGroup group(sched);
    for (int i = 1; i <= 100; ++i) group.run([&sum, i] { sum.fetch_add(i); });
    group.wait();
    EXPECT_EQ(sum.load(), 5050);
  });
  EXPECT_EQ(sum.load(), 5050);
}

TEST(SchedulerTest, NestedSpawns) {
  Scheduler sched(4);
  std::atomic<int> leaves{0};
  // Binary recursion depth 8 -> 256 leaves.
  std::function<void(int)> recurse = [&](int depth) {
    if (depth == 0) {
      leaves.fetch_add(1);
      return;
    }
    TaskGroup group(sched);
    group.run([&, depth] { recurse(depth - 1); });
    recurse(depth - 1);
    group.wait();
  };
  sched.run([&] { recurse(8); });
  EXPECT_EQ(leaves.load(), 256);
}

TEST(SchedulerTest, SequentialRunsReuseWorkers) {
  Scheduler sched(2);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> hits{0};
    sched.run([&] {
      TaskGroup g(sched);
      for (int i = 0; i < 10; ++i) g.run([&] { hits.fetch_add(1); });
      g.wait();
    });
    ASSERT_EQ(hits.load(), 10);
  }
}

TEST(SchedulerTest, StatsCountTasks) {
  Scheduler sched(4);
  sched.reset_stats();
  sched.run([&] {
    TaskGroup g(sched);
    for (int i = 0; i < 50; ++i) g.run([] {});
    g.wait();
  });
  const auto stats = sched.stats();
  EXPECT_GE(stats.tasks_executed, 50u);
  EXPECT_EQ(stats.busy_seconds.size(), 4u);
  EXPECT_GE(stats.max_busy(), 0.0);
  EXPECT_GE(stats.total_busy(), stats.max_busy());
}

// Busy time is CPU spent running tasks, not waiting for them: a root task
// whose only child was stolen yields in TaskGroup::wait until the thief
// finishes, and that idle spin is not charged to the root's worker.
TEST(SchedulerTest, WaitingOnAStolenChildIsNotBusyTime) {
  Scheduler sched(2);
  sched.reset_stats();
  constexpr double kChildCpu = 0.05;
  int root_worker = -1, child_worker = -1;
  sched.run([&] {
    root_worker = Scheduler::worker_id();
    std::atomic<bool> started{false};
    TaskGroup g(sched);
    g.run([&] {
      child_worker = Scheduler::worker_id();
      started.store(true, std::memory_order_release);
      const ThreadCpuTimer cpu;
      while (cpu.seconds() < kChildCpu) {
      }
    });
    // The root never pops its child: it sleeps (burning no CPU) until the
    // other worker has stolen and started it, then syncs.
    while (!started.load(std::memory_order_acquire))
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    g.wait();
  });
  ASSERT_NE(root_worker, child_worker);
  const auto busy = sched.stats().busy_seconds;
  EXPECT_GE(busy[static_cast<std::size_t>(child_worker)], 0.9 * kChildCpu);
  EXPECT_LT(busy[static_cast<std::size_t>(root_worker)], 0.25 * kChildCpu);
}

TEST(ParallelForTest, CoversRangeExactlyOnce) {
  Scheduler sched(4);
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  parallel_for(sched, 0, kN, 64, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelForTest, EmptyAndTinyRanges) {
  Scheduler sched(2);
  int calls = 0;
  parallel_for(sched, 5, 5, 1, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::atomic<int> single{0};
  parallel_for(sched, 0, 1, 16, [&](std::size_t lo, std::size_t hi) {
    single.fetch_add(static_cast<int>(hi - lo));
  });
  EXPECT_EQ(single.load(), 1);
}

TEST(ParallelReduceTest, MatchesSerialSum) {
  Scheduler sched(4);
  constexpr std::size_t kN = 100000;
  const double result = parallel_reduce<double>(
      sched, 0, kN, 1000,
      [](std::size_t lo, std::size_t hi) {
        double s = 0.0;
        for (std::size_t i = lo; i < hi; ++i) s += std::sqrt(static_cast<double>(i));
        return s;
      },
      [](double l, double r) { return l + r; });
  double serial = 0.0;
  for (std::size_t i = 0; i < kN; ++i) serial += std::sqrt(static_cast<double>(i));
  EXPECT_NEAR(result, serial, 1e-9 * serial);
}

TEST(ParallelReduceTest, BitIdenticalAcrossRuns) {
  // The fixed combine tree must make FP results identical regardless of
  // scheduling (the cilk-reducer determinism property DESIGN.md cites).
  Scheduler sched(8);
  auto run_once = [&] {
    return parallel_reduce<double>(
        sched, 1, 50000, 37,
        [](std::size_t lo, std::size_t hi) {
          double s = 0.0;
          for (std::size_t i = lo; i < hi; ++i) s += 1.0 / static_cast<double>(i);
          return s;
        },
        [](double l, double r) { return l + r; });
  };
  const double first = run_once();
  for (int i = 0; i < 5; ++i) ASSERT_EQ(run_once(), first);
}

TEST(ParallelForTest, WorksFromInsidePool) {
  Scheduler sched(4);
  std::atomic<long> total{0};
  sched.run([&] {
    parallel_for(sched, 0, 1000, 10, [&](std::size_t lo, std::size_t hi) {
      total.fetch_add(static_cast<long>(hi - lo));
    });
  });
  EXPECT_EQ(total.load(), 1000);
}

TEST(SchedulerTest, ManySmallTasksStress) {
  Scheduler sched(8);
  std::atomic<long> sum{0};
  parallel_for(sched, 0, 200000, 1,
               [&](std::size_t lo, std::size_t hi) {
                 sum.fetch_add(static_cast<long>(hi - lo), std::memory_order_relaxed);
               });
  EXPECT_EQ(sum.load(), 200000);
  EXPECT_GT(sched.stats().steals, 0u);  // with 8 workers, stealing must occur
}

}  // namespace
}  // namespace gbpol::ws
