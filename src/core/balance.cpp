#include "core/balance.hpp"

#include <algorithm>
#include <deque>

#include "mpisim/costmodel.hpp"

namespace gbpol {

ChunkPlan make_chunk_plan(std::uint32_t n_items, int workers,
                          std::uint32_t chunk_items) {
  ChunkPlan plan;
  plan.n_items = n_items;
  if (chunk_items == 0) {
    // Auto: a handful of chunks per worker thread so stealing (across ranks
    // and inside a hybrid rank's pool) has granularity to work with, derived
    // only from the job shape (policy-independent).
    const std::uint32_t parts =
        8u * static_cast<std::uint32_t>(std::max(1, workers));
    chunk_items = (n_items + parts - 1) / parts;
  }
  plan.chunk_items = std::max<std::uint32_t>(1, chunk_items);
  plan.n_chunks = n_items == 0 ? 0 : (n_items + plan.chunk_items - 1) / plan.chunk_items;
  return plan;
}

std::vector<double> chunk_costs(const ChunkPlan& plan,
                                std::span<const std::uint64_t> leaf_interactions) {
  const std::vector<double> leaf_costs = mpisim::interaction_costs(leaf_interactions);
  std::vector<double> costs(plan.n_chunks, 0.0);
  for (std::uint32_t c = 0; c < plan.n_chunks; ++c) {
    const Segment seg = plan.chunk_range(c);
    for (std::uint32_t l = seg.lo; l < seg.hi; ++l) costs[c] += leaf_costs[l];
  }
  return costs;
}

std::uint64_t BalanceAssignment::migrated(int r) const {
  std::uint64_t n = 0;
  for (const std::uint32_t c : order[static_cast<std::size_t>(r)])
    if (initial_rank[c] != r) ++n;
  return n;
}

namespace {

// Modeled list-scheduling simulation for kSteal. Ranks pop their queues
// front-to-back; the rank with the least elapsed modeled time acts next
// (ties to the lowest rank, so the schedule is a pure function of the
// inputs). A drained rank steals half of the most-loaded peer's queued tail;
// a refused steal (no victim with >= 2 queued chunks) retires the rank.
void simulate_steals(std::span<const double> chunk_costs,
                     BalanceAssignment& out) {
  const int ranks = out.ranks();
  std::vector<std::deque<std::uint32_t>> queue(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r)
    for (const std::uint32_t c : out.order[static_cast<std::size_t>(r)])
      queue[static_cast<std::size_t>(r)].push_back(c);
  for (auto& o : out.order) o.clear();

  std::vector<double> clock(static_cast<std::size_t>(ranks), 0.0);
  std::vector<char> retired(static_cast<std::size_t>(ranks), 0);
  auto remaining_cost = [&](int r) {
    double sum = 0.0;
    for (const std::uint32_t c : queue[static_cast<std::size_t>(r)])
      sum += chunk_costs[c];
    return sum;
  };

  for (;;) {
    int r = -1;
    for (int i = 0; i < ranks; ++i)
      if (!retired[static_cast<std::size_t>(i)] &&
          (r == -1 || clock[static_cast<std::size_t>(i)] <
                          clock[static_cast<std::size_t>(r)]))
        r = i;
    if (r == -1) break;
    auto& q = queue[static_cast<std::size_t>(r)];
    if (!q.empty()) {
      const std::uint32_t c = q.front();
      q.pop_front();
      out.order[static_cast<std::size_t>(r)].push_back(c);
      clock[static_cast<std::size_t>(r)] += chunk_costs[c];
      continue;
    }
    // Drained: request work from the most-loaded peer (by modeled remaining
    // cost — the gossiped progress counter).
    int victim = -1;
    double victim_cost = 0.0;
    for (int v = 0; v < ranks; ++v) {
      if (v == r || queue[static_cast<std::size_t>(v)].size() < 2) continue;
      const double cost = remaining_cost(v);
      if (victim == -1 || cost > victim_cost) {
        victim = v;
        victim_cost = cost;
      }
    }
    if (victim == -1) {
      retired[static_cast<std::size_t>(r)] = 1;
      continue;
    }
    auto& vq = queue[static_cast<std::size_t>(victim)];
    const std::uint32_t grant = static_cast<std::uint32_t>(vq.size() / 2);
    StealEvent ev;
    ev.thief = r;
    ev.victim = victim;
    ev.after_processed =
        static_cast<std::uint32_t>(out.order[static_cast<std::size_t>(r)].size());
    ev.granted = grant;
    ev.victim_remaining = vq.size();
    out.steals.push_back(ev);
    // Take the victim's TAIL (the work farthest from its cursor), keeping
    // the chunks' relative order on the thief.
    q.insert(q.end(), vq.end() - grant, vq.end());
    vq.erase(vq.end() - grant, vq.end());
  }
}

}  // namespace

BalanceAssignment plan_balance(std::span<const double> chunk_costs, int ranks,
                               BalancePolicy policy) {
  const int p = std::max(1, ranks);
  const std::uint32_t n = static_cast<std::uint32_t>(chunk_costs.size());
  BalanceAssignment out;
  out.order.resize(static_cast<std::size_t>(p));
  out.initial_rank.assign(n, 0);

  std::vector<Segment> segments;
  if (policy == BalancePolicy::kStatic) {
    segments.reserve(static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) segments.push_back(even_segment(n, p, r));
  } else {
    segments = segments_by_cost(chunk_costs, p);
  }
  for (int r = 0; r < p; ++r) {
    const Segment seg = segments[static_cast<std::size_t>(r)];
    auto& o = out.order[static_cast<std::size_t>(r)];
    o.reserve(seg.count());
    for (std::uint32_t c = seg.lo; c < seg.hi; ++c) {
      o.push_back(c);
      out.initial_rank[c] = r;
    }
  }
  if (policy == BalancePolicy::kSteal && n > 0 && p > 1)
    simulate_steals(chunk_costs, out);
  return out;
}

std::vector<std::vector<StealEvent>> steals_by_thief(const BalanceAssignment& plan,
                                                     int ranks) {
  std::vector<std::vector<StealEvent>> by(static_cast<std::size_t>(std::max(1, ranks)));
  for (const StealEvent& ev : plan.steals)
    by[static_cast<std::size_t>(ev.thief)].push_back(ev);
  return by;
}

std::vector<int> executor_of(const BalanceAssignment& plan, std::uint32_t n_chunks) {
  std::vector<int> executor(n_chunks, 0);
  for (int r = 0; r < plan.ranks(); ++r)
    for (const std::uint32_t c : plan.order[static_cast<std::size_t>(r)])
      executor[c] = r;
  return executor;
}

std::vector<std::uint32_t> ChunkLedger::pending() const {
  std::vector<std::uint32_t> out;
  for (std::uint32_t c = 0; c < size(); ++c)
    if (!done(c)) out.push_back(c);
  return out;
}

}  // namespace gbpol
