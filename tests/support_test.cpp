// Support substrate: geometry, RNG, Morton codes, statistics, tables, and
// the short-lived worker helper.
#include <atomic>
#include <cmath>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "support/aabb.hpp"
#include "support/memtrack.hpp"
#include "support/morton.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"
#include "support/vec3.hpp"
#include "support/workers.hpp"

namespace gbpol {
namespace {

TEST(Vec3Test, Arithmetic) {
  const Vec3 a{1, 2, 3}, b{4, 5, 6};
  EXPECT_EQ(a + b, (Vec3{5, 7, 9}));
  EXPECT_EQ(b - a, (Vec3{3, 3, 3}));
  EXPECT_EQ(a * 2.0, (Vec3{2, 4, 6}));
  EXPECT_EQ(2.0 * a, a * 2.0);
  EXPECT_EQ(-a, (Vec3{-1, -2, -3}));
  EXPECT_DOUBLE_EQ(dot(a, b), 32.0);
  EXPECT_EQ(cross(Vec3{1, 0, 0}, Vec3{0, 1, 0}), (Vec3{0, 0, 1}));
  EXPECT_DOUBLE_EQ(norm(Vec3{3, 4, 0}), 5.0);
  EXPECT_DOUBLE_EQ(distance2(a, b), 27.0);
}

TEST(Vec3Test, NormalizedHandlesZero) {
  EXPECT_EQ(normalized(Vec3{}), (Vec3{}));
  const Vec3 n = normalized(Vec3{0, 0, 5});
  EXPECT_NEAR(norm(n), 1.0, 1e-15);
}

TEST(Vec3Test, StreamOutput) {
  std::ostringstream os;
  os << Vec3{1, 2, 3};
  EXPECT_EQ(os.str(), "(1, 2, 3)");
}

TEST(AabbTest, ExpandAndQueries) {
  Aabb box;
  EXPECT_TRUE(box.empty());
  box.expand(Vec3{1, 2, 3});
  box.expand(Vec3{-1, 0, 7});
  EXPECT_FALSE(box.empty());
  EXPECT_EQ(box.lo, (Vec3{-1, 0, 3}));
  EXPECT_EQ(box.hi, (Vec3{1, 2, 7}));
  EXPECT_EQ(box.center(), (Vec3{0, 1, 5}));
  EXPECT_DOUBLE_EQ(box.cube_side(), 4.0);
  EXPECT_TRUE(box.contains(Vec3{0, 1, 5}));
  EXPECT_FALSE(box.contains(Vec3{2, 1, 5}));
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-2.0, 3.0);
    EXPECT_GE(x, -2.0);
    EXPECT_LT(x, 3.0);
  }
}

TEST(RngTest, NextBelowBounds) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.next_below(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // all values hit in 1000 draws
}

TEST(RngTest, NormalMomentsRoughlyStandard) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.add(rng.normal());
  EXPECT_NEAR(stats.mean(), 0.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.05);
}

TEST(MortonTest, ExpandCompactRoundTrip) {
  for (const std::uint32_t v : {0u, 1u, 7u, 0x155555u, 0x1fffffu}) {
    EXPECT_EQ(morton::compact_bits(morton::expand_bits(v)), v);
  }
}

TEST(MortonTest, EncodeDecodeRoundTrip) {
  const auto code = morton::encode(123, 45678, 0x1fffff);
  const auto d = morton::decode(code);
  EXPECT_EQ(d.ix, 123u);
  EXPECT_EQ(d.iy, 45678u);
  EXPECT_EQ(d.iz, 0x1fffffu);
}

TEST(MortonTest, LocalityOrdering) {
  // Points in the same octant of a cube sort together.
  Aabb box;
  box.expand(Vec3{0, 0, 0});
  box.expand(Vec3{8, 8, 8});
  const auto low = morton::encode_point(Vec3{1, 1, 1}, box);
  const auto low2 = morton::encode_point(Vec3{2, 2, 2}, box);
  const auto high = morton::encode_point(Vec3{7, 7, 7}, box);
  EXPECT_LT(low, high);
  EXPECT_LT(low2, high);
}

TEST(MortonTest, SortPermutationIsStableAndSorted) {
  const std::vector<std::uint64_t> codes{5, 3, 3, 9, 1};
  const auto perm = morton::sort_permutation(codes);
  ASSERT_EQ(perm.size(), 5u);
  EXPECT_EQ(perm[0], 4u);
  EXPECT_EQ(perm[1], 1u);  // stable: first 3 before second 3
  EXPECT_EQ(perm[2], 2u);
  EXPECT_EQ(perm[3], 0u);
  EXPECT_EQ(perm[4], 3u);
}

TEST(StatsTest, RunningStatsMatchesDirectComputation) {
  RunningStats stats;
  const double xs[] = {1.0, 2.0, 4.0, 8.0};
  for (double x : xs) stats.add(x);
  EXPECT_EQ(stats.count(), 4u);
  EXPECT_DOUBLE_EQ(stats.mean(), 3.75);
  EXPECT_DOUBLE_EQ(stats.min(), 1.0);
  EXPECT_DOUBLE_EQ(stats.max(), 8.0);
  // Sample variance: sum((x-3.75)^2)/3 = (7.5625+3.0625+0.0625+18.0625)/3
  EXPECT_NEAR(stats.variance(), 28.75 / 3.0, 1e-12);
}

TEST(StatsTest, SummarizeAndMedian) {
  const std::vector<double> xs{3, 1, 4, 1, 5};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(median(xs), 3.0);
  const std::vector<double> even{1, 2, 3, 10};
  EXPECT_DOUBLE_EQ(median(even), 2.5);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{}), 0.0);
}

TEST(StatsTest, PercentError) {
  EXPECT_DOUBLE_EQ(percent_error(110.0, 100.0), 10.0);
  EXPECT_DOUBLE_EQ(percent_error(-0.9, -1.0), 10.000000000000005);
  EXPECT_DOUBLE_EQ(percent_error(0.5, 0.0), 50.0);
}

TEST(TableTest, AlignedAndCsvOutput) {
  Table t({"name", "value"});
  t.add_row({"alpha", Table::num(1.5)});
  t.add_row({"b", Table::integer(42)});
  EXPECT_EQ(t.rows(), 2u);
  std::ostringstream text, csv;
  t.print(text);
  t.print_csv(csv);
  EXPECT_NE(text.str().find("alpha"), std::string::npos);
  EXPECT_NE(csv.str().find("b,42"), std::string::npos);
}

TEST(TableTest, CsvQuoting) {
  Table t({"x"});
  t.add_row({"a,b \"q\""});
  std::ostringstream csv;
  t.print_csv(csv);
  EXPECT_NE(csv.str().find("\"a,b \"\"q\"\"\""), std::string::npos);
}

TEST(TimerTest, WallAndCpuAdvance) {
  WallTimer wall;
  ThreadCpuTimer cpu;
  volatile double sink = 0.0;
  for (int i = 0; i < 2000000; ++i) sink = sink + std::sqrt(static_cast<double>(i));
  EXPECT_GT(wall.seconds(), 0.0);
  EXPECT_GT(cpu.seconds(), 0.0);
}

TEST(MemtrackTest, FootprintAccounting) {
  MemoryFootprint fp;
  fp.add_array<double>(1024);
  fp.add(64);
  EXPECT_EQ(fp.bytes, 1024 * sizeof(double) + 64);
  EXPECT_GT(fp.mib(), 0.0);
}

TEST(MemtrackTest, ProcessRssPositive) { EXPECT_GT(process_rss_bytes(), 0u); }

// --- Short-lived workers -------------------------------------------------

TEST(WorkersTest, EveryBlockRunsExactlyOnceForAnyWorkerCount) {
  for (const int count : {1, 2, 4, 7}) {
    // More workers than blocks (3), about as many (8), many more blocks (1000).
    for (const std::size_t blocks : {std::size_t{3}, std::size_t{8}, std::size_t{1000}}) {
      std::vector<std::atomic<int>> hits(blocks);
      std::mutex ids_mutex;
      std::set<std::thread::id> ids;
      workers::for_blocks(count, blocks, [&](std::size_t b) {
        hits[b].fetch_add(1);
        const std::lock_guard lock(ids_mutex);
        ids.insert(std::this_thread::get_id());
      });
      for (std::size_t b = 0; b < blocks; ++b)
        ASSERT_EQ(hits[b].load(), 1) << count << " workers, block " << b << " of " << blocks;
      // Never more workers than blocks, and the caller is one of them.
      EXPECT_LE(ids.size(), std::min<std::size_t>(count, blocks));
      if (count == 1) {
        EXPECT_EQ(ids, std::set{std::this_thread::get_id()});
      }
    }
  }
}

TEST(WorkersTest, ZeroBlocksCallNothing) {
  for (const int count : {1, 2, 4, 7}) {
    int calls = 0;
    workers::for_blocks(count, 0, [&](std::size_t) { ++calls; });
    workers::for_ranges(count, 0, 16, [&](std::size_t, std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0) << count << " workers";
  }
}

TEST(WorkersTest, RangesCoverTheItemsInConsecutiveBlocks) {
  for (const int count : {1, 2, 4, 7}) {
    std::vector<std::atomic<int>> hits(1001);
    workers::for_ranges(count, hits.size(), 64, [&](std::size_t lo, std::size_t hi) {
      EXPECT_EQ(lo % 64, 0u);
      EXPECT_EQ(hi, std::min(lo + 64, hits.size()));
      for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < hits.size(); ++i) ASSERT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(WorkersTest, AnExceptionInOneBlockReachesTheCaller) {
  for (const int count : {1, 2, 4, 7}) {
    std::atomic<int> started{0};
    try {
      workers::for_blocks(count, 100, [&](std::size_t b) {
        started.fetch_add(1);
        if (b == 5) throw std::runtime_error("block 5");
      });
      ADD_FAILURE() << count << " workers: no exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "block 5") << count << " workers";
    }
    // One worker claims blocks in ascending order and stops at the throw.
    // (Other workers may claim more blocks before they see the failure.)
    if (count == 1) {
      EXPECT_EQ(started.load(), 6);
    }
  }
  // run: every worker throws; exactly one exception reaches the caller.
  EXPECT_THROW(workers::run(4, [] { throw std::logic_error("each"); }), std::logic_error);
}

TEST(WorkersTest, RunStartsTheRequestedWorkers) {
  for (const int count : {1, 2, 4, 7}) {
    std::atomic<int> bodies{0};
    workers::run(count, [&] { bodies.fetch_add(1); });
    EXPECT_EQ(bodies.load(), count);
  }
}

TEST(WorkersTest, CountIsCappedByBlocksAndWork) {
  const int cpus = workers::affinity_cpus();
  EXPECT_GE(cpus, 1);
  EXPECT_EQ(workers::count_for(1000, 1'000'000, 1), cpus);
  EXPECT_EQ(workers::count_for(2, 1'000'000, 1), std::min(cpus, 2));
  EXPECT_EQ(workers::count_for(0, 1'000'000, 1), 1);
  // Below the minimum work per worker the caller works alone.
  EXPECT_EQ(workers::count_for(1000, 99, 100), 1);
  EXPECT_EQ(workers::count_for(1000, 250, 100), std::min(cpus, 2));
}

}  // namespace
}  // namespace gbpol
