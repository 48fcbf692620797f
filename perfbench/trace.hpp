// In-memory span recorder for the traced run.
//
// Spans are recorded by the benchmark around its own calls into the
// library's public functions; nothing inside the library is instrumented.
// Each span has a name (the layer boundary), the request it serves, its
// start and end, and the span that was open when it began (its parent). A
// layer's self time is its span's duration minus the time its child spans
// cover. One Tracer belongs to one thread.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Span {
  std::string name;
  std::uint64_t request = 0;
  int parent = -1;  // index into Tracer::spans(), -1 for a root
  Clock::time_point start;
  Clock::time_point end;
  double child_seconds = 0.0;  // filled in as children close

  double seconds() const { return seconds_between(start, end); }
  double self_seconds() const { return seconds() - child_seconds; }
};

class Tracer {
 public:
  // A disabled tracer records nothing and costs one branch per boundary.
  explicit Tracer(bool enabled = true) : enabled_(enabled) {}

  int begin(const char* name, std::uint64_t request);
  void end(int id);

  // Closes its span on scope exit.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t request)
        : tracer_(tracer), id_(tracer.begin(name, request)) {}
    ~Scope() { tracer_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int id_;
  };

  bool enabled() const { return enabled_; }
  const std::vector<Span>& spans() const { return spans_; }

  // Sum of self times per span name.
  std::map<std::string, double> self_seconds_by_name() const;
  // Number of closed spans per name.
  std::map<std::string, std::size_t> count_by_name() const;
  // Sum of root-span durations: the traced end-to-end time.
  double root_seconds() const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench
