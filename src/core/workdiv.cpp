#include "core/workdiv.hpp"

#include <algorithm>

namespace gbpol {

Segment even_segment(std::size_t n, int parts, int index) {
  const std::size_t p = static_cast<std::size_t>(std::max(1, parts));
  const std::size_t i = static_cast<std::size_t>(std::clamp(index, 0, parts - 1));
  const std::size_t base = n / p;
  const std::size_t extra = n % p;
  // First `extra` segments get base+1 items.
  const std::size_t lo = i * base + std::min(i, extra);
  const std::size_t hi = lo + base + (i < extra ? 1 : 0);
  return Segment{static_cast<std::uint32_t>(lo), static_cast<std::uint32_t>(hi)};
}

std::vector<Segment> segments_by_cost(std::span<const double> costs, int parts) {
  const int p = std::max(1, parts);
  const std::size_t n = costs.size();
  std::vector<Segment> segments(static_cast<std::size_t>(p));

  double total = 0.0;
  for (double c : costs) total += c;
  if (total <= 0.0) {
    // Zero-cost (or empty) input: fall back to the even item split so every
    // rank still receives a well-formed range.
    for (int i = 0; i < p; ++i)
      segments[static_cast<std::size_t>(i)] = even_segment(n, p, i);
    return segments;
  }

  std::uint32_t cursor = 0;
  double cost_taken = 0.0;
  for (int i = 0; i < p; ++i) {
    const std::uint32_t lo = cursor;
    if (i == p - 1) {
      cursor = static_cast<std::uint32_t>(n);
    } else {
      // Greedy: extend until cumulative cost reaches the proportional target.
      const double target = total * static_cast<double>(i + 1) / static_cast<double>(p);
      while (cursor < n && cost_taken < target) {
        cost_taken += costs[cursor];
        ++cursor;
      }
    }
    segments[static_cast<std::size_t>(i)] = Segment{lo, cursor};
  }
  return segments;
}

}  // namespace gbpol
