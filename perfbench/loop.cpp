#include "loop.hpp"

#include <condition_variable>
#include <mutex>
#include <thread>

namespace perfbench {

std::vector<Timing> closed_loop(
    std::size_t count, const std::function<void(std::size_t)>& prepare,
    const std::function<void(std::size_t)>& send_and_wait) {
  std::vector<Timing> timings;
  for (std::size_t i = 0; i < count; ++i) {
    prepare(i);
    Timing t;
    t.submitted = Clock::now();
    t.due = t.submitted;
    send_and_wait(i);
    t.answered = Clock::now();
    t.lag_s = i == 0 ? 0.0 : seconds_between(timings.back().answered, t.submitted);
    timings.push_back(t);
  }
  return timings;
}

std::vector<Timing> open_loop(double rate, std::size_t count,
                              const std::function<void(std::size_t)>& submit,
                              const std::function<std::size_t()>& serve_next) {
  std::vector<Timing> timings(count);
  if (count == 0) return timings;
  // A short lead lets the generator thread start before the first due time.
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  for (std::size_t i = 0; i < count; ++i)
    timings[i].due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(
                                     static_cast<double>(i) / rate));

  std::mutex mutex;
  std::condition_variable queued_cv;
  std::size_t queued = 0;  // guarded by mutex

  {
    std::jthread generator([&](std::stop_token stop) {
      for (std::size_t i = 0; i < count && !stop.stop_requested(); ++i) {
        std::this_thread::sleep_until(timings[i].due);
        const Clock::time_point now = Clock::now();
        submit(i);
        std::lock_guard<std::mutex> lock(mutex);
        timings[i].submitted = now;
        timings[i].lag_s = seconds_between(timings[i].due, now);
        ++queued;
        queued_cv.notify_one();
      }
    });
    // The jthread's destructor requests stop and joins on every exit path,
    // including an exception from serve_next.
    for (std::size_t served = 0; served < count; ++served) {
      {
        std::unique_lock<std::mutex> lock(mutex);
        queued_cv.wait(lock, [&] { return queued > served; });
      }
      const std::size_t index = serve_next();
      timings[index].answered = Clock::now();
    }
  }
  return timings;
}

}  // namespace perfbench
