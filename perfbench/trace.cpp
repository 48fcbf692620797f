#include "trace.hpp"

namespace perfbench {

int Tracer::begin(const char* name, std::uint64_t request) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.request = request;
  span.parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size() - 1);
  open_.push_back(id);
  // Read the clock last, so recording the span is not charged to it.
  spans_.back().start = Clock::now();
  return id;
}

void Tracer::end(int id) {
  if (id < 0) return;
  const Clock::time_point now = Clock::now();
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end = now;
  // Spans close in LIFO order on one thread; tolerate a stray close anyway.
  while (!open_.empty() && open_.back() != id) open_.pop_back();
  if (!open_.empty()) open_.pop_back();
  if (span.parent >= 0)
    spans_[static_cast<std::size_t>(span.parent)].child_seconds += span.seconds();
}

std::map<std::string, double> Tracer::self_seconds_by_name() const {
  std::map<std::string, double> out;
  for (const Span& s : spans_) out[s.name] += s.self_seconds();
  return out;
}

std::map<std::string, std::size_t> Tracer::count_by_name() const {
  std::map<std::string, std::size_t> out;
  for (const Span& s : spans_) ++out[s.name];
  return out;
}

double Tracer::root_seconds() const {
  double total = 0.0;
  for (const Span& s : spans_)
    if (s.parent < 0) total += s.seconds();
  return total;
}

}  // namespace perfbench
