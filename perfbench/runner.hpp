// One benchmark run: set up the service, send the workload's requests (as
// many as --seconds sizes it for), check every answer against its reference,
// and compute the
// end-to-end metrics (untraced run) or the per-layer metrics (traced run).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// The traced run's layer self times (surface, prepare, Engine::run,
// TrajectoryDriver) must add up to the traced service time of the same
// requests, and the list and kernel stage times of the serial stage walk to
// an untraced serial Engine::run of the same prepared requests, each within
// this fraction; the self-tests hold the benchmark to it.
inline constexpr double kReconcileTolerance = 0.25;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct RunReport {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Checks that are not requests (the traced replay, the set-up answers).
  std::uint64_t other_mismatches = 0;
  // The metrics BENCHMARK.json names for this mode, in its order.
  std::vector<Metric> metrics;
  // Printed for the reader only: counts, idle-layer figures, sample sizes.
  std::vector<Metric> details;

  bool correct() const { return failed == 0 && other_mismatches == 0; }
};

RunReport run_workload(const RunArgs& args);

}  // namespace perfbench
