#include "stats.hpp"

#include <algorithm>
#include <utility>

namespace perfbench {

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(p, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

int highest_supported_percentile(std::size_t samples, std::size_t beyond) {
  if (samples <= beyond) return 0;
  // Largest whole p with samples * (100 - p) / 100 >= beyond.
  const std::size_t p = 100 - (100 * beyond + samples - 1) / samples;
  return static_cast<int>(p);
}

}  // namespace perfbench
