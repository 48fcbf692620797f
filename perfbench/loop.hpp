// Load generators: a closed loop with one client and an open loop with one
// generator thread and one serving thread. Both are generic over the calls
// that submit and serve a request, so the self-tests can drive them with an
// injected server.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "trace.hpp"

namespace perfbench {

struct Timing {
  // Open loop: when the schedule made the request due. Closed loop: when the
  // client sent it. Latency is measured from here, so in the open loop a
  // stall also delays every request queued behind it.
  Clock::time_point due;
  Clock::time_point submitted;
  Clock::time_point answered;
  // How late the generator ran: open loop, submit minus due; closed loop,
  // the client's gap between the previous answer and this submit.
  double lag_s = 0.0;

  double latency_s() const { return seconds_between(due, answered); }
};

// One client sends `count` requests, request i after request i-1 is
// answered. prepare(i) builds request i's input (client think time, not
// charged to the request); send_and_wait(i) then submits it and returns once
// it is answered, and the loop stamps submit and answer around it.
std::vector<Timing> closed_loop(
    std::size_t count, const std::function<void(std::size_t)>& prepare,
    const std::function<void(std::size_t)>& send_and_wait);

// `count` requests due at start + i / rate. submit(i) runs on a generator
// thread at (or after) the due time; serve_next() runs on the calling thread
// once a request is queued and returns the index of the request it answered.
// If serve_next throws, the generator is stopped and joined and the
// exception propagates.
std::vector<Timing> open_loop(double rate, std::size_t count,
                              const std::function<void(std::size_t)>& submit,
                              const std::function<std::size_t()>& serve_next);

}  // namespace perfbench
