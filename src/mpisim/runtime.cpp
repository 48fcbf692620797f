#include "mpisim/runtime.hpp"

#include <algorithm>

#include "mpisim/pool.hpp"

namespace gbpol::mpisim {

double RunReport::modeled_seconds() const {
  double m = 0.0;
  for (const RankResult& r : ranks)
    m = std::max(m, r.compute_seconds + r.straggler_seconds + r.comm_seconds);
  return m;
}

double RunReport::max_compute_seconds() const {
  double m = 0.0;
  for (const RankResult& r : ranks)
    m = std::max(m, r.compute_seconds + r.straggler_seconds);
  return m;
}

double RunReport::max_comm_seconds() const {
  double m = 0.0;
  for (const RankResult& r : ranks) m = std::max(m, r.comm_seconds);
  return m;
}

std::uint64_t RunReport::total_bytes_sent() const {
  std::uint64_t total = 0;
  for (const RankResult& r : ranks) total += r.bytes_sent;
  return total;
}

RunReport Runtime::run(const Config& config, const std::function<void(Comm&)>& rank_fn) {
  PersistentPool pool(config.ranks);
  return pool.run(config, rank_fn);
}

}  // namespace gbpol::mpisim
