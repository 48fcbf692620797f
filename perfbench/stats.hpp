// Order statistics for the benchmark's reports.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

// Percentile p in [0, 1] by linear interpolation between closest ranks
// (position p * (n - 1), NumPy's default). 0 for an empty sample.
double percentile(std::vector<double> values, double p);

double median(std::vector<double> values);

// Highest percentile (in whole percent) that still has at least `beyond`
// samples above it: how far a sample of this size can be read.
int highest_supported_percentile(std::size_t samples, std::size_t beyond = 10);

}  // namespace perfbench
