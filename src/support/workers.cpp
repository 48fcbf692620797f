#include "support/workers.hpp"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace gbpol::workers {

int affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return std::max(1, CPU_COUNT(&set));
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

int count_for(std::size_t blocks, std::size_t work, std::size_t min_work_per_worker) {
  const std::size_t by_work = work / std::max<std::size_t>(1, min_work_per_worker);
  const std::size_t cap = std::min(blocks, by_work);
  return static_cast<int>(
      std::max<std::size_t>(1, std::min(cap, static_cast<std::size_t>(affinity_cpus()))));
}

void run(int count, const std::function<void()>& body) {
  std::mutex error_mutex;
  std::exception_ptr error;  // guarded by error_mutex
  // Runs on every worker and never throws: the first exception is kept for
  // the caller.
  const auto work = [&] {
    try {
      body();
    } catch (...) {
      const std::lock_guard lock(error_mutex);
      if (!error) error = std::current_exception();
    }
  };
  {
    std::vector<std::jthread> helpers;
    helpers.reserve(static_cast<std::size_t>(std::max(0, count - 1)));
    for (int t = 1; t < count; ++t) {
      try {
        helpers.emplace_back(work);
      } catch (const std::system_error&) {
        break;  // the workers already running claim the remaining work
      }
    }
    work();
  }  // joins the helpers
  if (error) std::rethrow_exception(error);
}

void for_blocks(int count, std::size_t blocks, const std::function<void(std::size_t)>& fn) {
  if (blocks == 0) return;
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  run(static_cast<int>(std::min<std::size_t>(static_cast<std::size_t>(std::max(1, count)), blocks)),
      [&] {
        try {
          for (std::size_t b; !failed.load() && (b = next.fetch_add(1)) < blocks;) fn(b);
        } catch (...) {
          failed.store(true);
          throw;
        }
      });
}

void for_ranges(int count, std::size_t n, std::size_t width,
                const std::function<void(std::size_t lo, std::size_t hi)>& fn) {
  const std::size_t w = std::max<std::size_t>(1, width);
  for_blocks(count, (n + w - 1) / w,
             [&](std::size_t b) { fn(b * w, std::min(n, (b + 1) * w)); });
}

}  // namespace gbpol::workers
