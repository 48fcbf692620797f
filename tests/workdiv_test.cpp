// Static work-division helpers.
#include "core/workdiv.hpp"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

namespace gbpol {
namespace {

TEST(EvenSegmentTest, PartitionsExactly) {
  for (const std::size_t n : {0u, 1u, 10u, 97u}) {
    for (const int parts : {1, 2, 3, 7, 12}) {
      std::size_t total = 0;
      std::uint32_t cursor = 0;
      for (int i = 0; i < parts; ++i) {
        const Segment s = even_segment(n, parts, i);
        EXPECT_EQ(s.lo, cursor);
        cursor = s.hi;
        total += s.count();
      }
      EXPECT_EQ(total, n);
      EXPECT_EQ(cursor, n);
    }
  }
}

TEST(EvenSegmentTest, SizesDifferByAtMostOne) {
  for (const int parts : {3, 5, 8}) {
    std::uint32_t min_size = ~0u, max_size = 0;
    for (int i = 0; i < parts; ++i) {
      const Segment s = even_segment(100, parts, i);
      min_size = std::min(min_size, s.count());
      max_size = std::max(max_size, s.count());
    }
    EXPECT_LE(max_size - min_size, 1u);
  }
}

TEST(EvenSegmentTest, MorePartsThanItemsYieldsEmptySegments) {
  // ranks > leaves: surplus parts get empty [lo, lo) ranges, and the
  // non-empty ones still tile [0, n) exactly.
  for (const std::size_t n : {0u, 1u, 3u}) {
    std::uint32_t cursor = 0;
    std::size_t empty = 0;
    for (int i = 0; i < 16; ++i) {
      const Segment s = even_segment(n, 16, i);
      EXPECT_EQ(s.lo, cursor);
      EXPECT_LE(s.count(), 1u);
      cursor = s.hi;
      empty += s.count() == 0;
    }
    EXPECT_EQ(cursor, n);
    EXPECT_EQ(empty, 16 - n);
  }
}

TEST(SegmentsByCostTest, AlwaysReturnsExactlyPartsSegmentsTilingTheItems) {
  const std::vector<double> costs = {3.0, 1.0, 0.5, 7.0, 2.0, 2.0, 1.5};
  for (const int parts : {1, 2, 3, 7, 12}) {
    const auto segments = segments_by_cost(costs, parts);
    ASSERT_EQ(segments.size(), static_cast<std::size_t>(parts));
    std::uint32_t cursor = 0;
    for (const Segment& s : segments) {
      EXPECT_EQ(s.lo, cursor);
      cursor = s.hi;
    }
    EXPECT_EQ(cursor, costs.size());
  }
}

TEST(SegmentsByCostTest, SingleItemGoesToOnePartOnly) {
  const std::vector<double> costs = {5.0};
  const auto segments = segments_by_cost(costs, 4);
  ASSERT_EQ(segments.size(), 4u);
  std::size_t holders = 0;
  std::uint32_t covered = 0;
  for (const Segment& s : segments) {
    holders += s.count() > 0;
    covered += s.count();
  }
  EXPECT_EQ(holders, 1u);
  EXPECT_EQ(covered, 1u);
}

TEST(SegmentsByCostTest, MorePartsThanItemsYieldsEmptyTrailingSegments) {
  const std::vector<double> costs = {1.0, 4.0, 2.0};
  const auto segments = segments_by_cost(costs, 8);
  ASSERT_EQ(segments.size(), 8u);
  std::uint32_t cursor = 0;
  std::size_t nonempty = 0;
  for (const Segment& s : segments) {
    EXPECT_EQ(s.lo, cursor);
    cursor = s.hi;
    nonempty += s.count() > 0;
  }
  EXPECT_EQ(cursor, costs.size());
  EXPECT_LE(nonempty, costs.size());
}

TEST(SegmentsByCostTest, AllCostInOneItemStillCoversEveryItem) {
  // One hot leaf: the greedy split cannot subdivide it, but coverage and
  // segment count must still hold.
  std::vector<double> costs(10, 0.0);
  costs[6] = 100.0;
  const auto segments = segments_by_cost(costs, 4);
  ASSERT_EQ(segments.size(), 4u);
  std::uint32_t cursor = 0;
  for (const Segment& s : segments) {
    EXPECT_EQ(s.lo, cursor);
    cursor = s.hi;
  }
  EXPECT_EQ(cursor, costs.size());
}

TEST(SegmentsByCostTest, ZeroCostsDegradeToTheEvenSplit) {
  const std::vector<double> costs(22, 0.0);
  for (const int parts : {1, 3, 5}) {
    const auto segments = segments_by_cost(costs, parts);
    ASSERT_EQ(segments.size(), static_cast<std::size_t>(parts));
    for (int i = 0; i < parts; ++i) {
      const Segment expect = even_segment(costs.size(), parts, i);
      EXPECT_EQ(segments[static_cast<std::size_t>(i)].lo, expect.lo);
      EXPECT_EQ(segments[static_cast<std::size_t>(i)].hi, expect.hi);
    }
  }
}

TEST(SegmentsByCostTest, SkewedCostsBeatTheEvenSplitOnMaxSegmentCost) {
  // Front-loaded costs: the cost split must strictly reduce the heaviest
  // segment relative to the count-even split.
  std::vector<double> costs(32, 1.0);
  for (int i = 0; i < 8; ++i) costs[static_cast<std::size_t>(i)] = 9.0;
  const int parts = 4;
  const auto by_cost = segments_by_cost(costs, parts);
  double worst_cost = 0.0, worst_even = 0.0;
  for (int i = 0; i < parts; ++i) {
    double cost_sum = 0.0, even_sum = 0.0;
    const Segment even = even_segment(costs.size(), parts, i);
    for (std::uint32_t c = by_cost[static_cast<std::size_t>(i)].lo;
         c < by_cost[static_cast<std::size_t>(i)].hi; ++c)
      cost_sum += costs[c];
    for (std::uint32_t c = even.lo; c < even.hi; ++c) even_sum += costs[c];
    worst_cost = std::max(worst_cost, cost_sum);
    worst_even = std::max(worst_even, even_sum);
  }
  EXPECT_LT(worst_cost, worst_even);
}

}  // namespace
}  // namespace gbpol
