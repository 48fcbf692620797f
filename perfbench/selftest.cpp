// Self-tests of the benchmark's own machinery: order statistics, the load
// generators' time accounting, seed determinism of the workload generators,
// span self times, and reconciliation of a traced run. Exits non-zero on the
// first failed check.
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "loop.hpp"
#include "runner.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

bool near(double a, double b, double tol = 1e-12) { return std::abs(a - b) <= tol; }

void sleep_ms(int ms) { std::this_thread::sleep_for(std::chrono::milliseconds(ms)); }

void test_stats() {
  using perfbench::percentile;
  const std::vector<double> five = {5, 1, 4, 2, 3};
  expect(near(percentile(five, 0.5), 3.0), "percentile: median of 1..5 is 3");
  expect(near(percentile(five, 0.9), 4.6), "percentile: p90 of 1..5 interpolates to 4.6");
  expect(near(percentile(five, 0.0), 1.0) && near(percentile(five, 1.0), 5.0),
         "percentile: p0 and p100 are the extremes");
  expect(percentile({}, 0.5) == 0.0, "percentile: empty sample gives 0");
  expect(near(perfbench::median({2, 1}), 1.5), "median: even count averages the middle");


  expect(perfbench::highest_supported_percentile(100) == 90,
         "100 samples support p90 with 10 beyond");
  expect(perfbench::highest_supported_percentile(20) == 50,
         "20 samples support only p50");
  expect(perfbench::highest_supported_percentile(10) == 0, "10 samples support nothing");
}

void test_open_loop_stall() {
  // 40 requests at 100/s against a 2 ms server; request 10 stalls 200 ms.
  const auto run = [](bool stall) {
    std::size_t next = 0;
    return perfbench::open_loop(
        100.0, 40, [](std::size_t) {},
        [&]() {
          const std::size_t i = next++;
          sleep_ms(stall && i == 10 ? 200 : 2);
          return i;
        });
  };
  const std::vector<perfbench::Timing> calm = run(false);
  const std::vector<perfbench::Timing> stalled = run(true);
  expect(calm[11].latency_s() < 0.05, "open loop: without a stall request 11 is prompt");
  expect(stalled[10].latency_s() >= 0.2, "open loop: the stalled request pays the stall");
  // Request 11 was due 10 ms after request 10, so it waited ~190 ms behind it.
  bool queued_behind = true;
  for (std::size_t i = 11; i < 20; ++i)
    queued_behind = queued_behind &&
                    stalled[i].latency_s() >= 0.2 - 0.01 * static_cast<double>(i - 10) - 0.005;
  expect(queued_behind,
         "open loop: requests queued behind the stall are timed from their due time");
  double worst_lag = 0.0;
  for (const perfbench::Timing& t : stalled) worst_lag = std::max(worst_lag, t.lag_s);
  expect(worst_lag < 0.05, "open loop: the generator keeps its schedule during the stall");
}

void test_closed_loop() {
  const std::vector<perfbench::Timing> t = perfbench::closed_loop(
      4, [](std::size_t) { sleep_ms(20); }, [](std::size_t) { sleep_ms(5); });
  bool prompt = !t.empty();
  for (const perfbench::Timing& x : t) prompt = prompt && x.latency_s() < 0.015;
  expect(prompt, "closed loop: input preparation is not charged to the request");
  expect(t.size() == 4, "closed loop: sends exactly the requested count");
  expect(t.size() > 1 && t[1].lag_s >= 0.019, "closed loop: think time shows as lag");
}

void test_tracer() {
  perfbench::Tracer tr;
  {
    perfbench::Tracer::Scope root(tr, "root", 1);
    sleep_ms(10);
    {
      perfbench::Tracer::Scope child(tr, "child", 1);
      sleep_ms(20);
      perfbench::Tracer::Scope grandchild(tr, "grandchild", 1);
      sleep_ms(5);
    }
  }
  const auto self = tr.self_seconds_by_name();
  double sum = 0.0;
  for (const auto& [name, s] : self) sum += s;
  expect(near(sum, tr.root_seconds(), 1e-9), "trace: self times add up to the root span");
  expect(self.at("root") >= 0.009 && self.at("root") < 0.02,
         "trace: a parent's self time excludes its children");
  expect(self.at("child") >= 0.019 && self.at("child") < 0.03,
         "trace: nested spans attribute to the innermost");
  perfbench::Tracer off(false);
  { perfbench::Tracer::Scope s(off, "x", 0); }
  expect(off.spans().empty(), "trace: a disabled tracer records nothing");
}

// 64-bit FNV-1a digest of a molecule's bytes (positions, radii, charges).
std::uint64_t molecule_digest(const gbpol::Molecule& mol) {
  std::uint64_t h = 14695981039346656037ull;
  const auto add = [&h](double d) {
    const auto w = std::bit_cast<std::uint64_t>(d);
    for (int i = 0; i < 8; ++i) {
      h ^= (w >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  for (const gbpol::Atom& a : mol.atoms()) {
    add(a.pos.x);
    add(a.pos.y);
    add(a.pos.z);
    add(a.radius);
    add(a.charge);
  }
  return h;
}

std::vector<std::uint64_t> stream_digests(const std::string& name, std::uint64_t seed,
                                          std::size_t n) {
  const perfbench::Workload w = perfbench::make_workload(name, seed, 4.0);
  std::vector<std::uint64_t> out;
  for (std::size_t i = 0; i < std::min(n, w.requests); ++i) {
    const perfbench::Request r = w.request_at(i);
    out.push_back(molecule_digest(*r.mol) ^
                  std::hash<double>{}(r.params.eps_epol));
  }
  out.push_back(molecule_digest(*w.warmup.mol));
  return out;
}

void test_seed_determinism() {
  for (const std::string& name : perfbench::workload_names()) {
    const std::size_t n = name == "cmv_owned" ? 4 : 200;
    const auto a = stream_digests(name, 11, n);
    const auto b = stream_digests(name, 11, n);
    const auto c = stream_digests(name, 12, n);
    expect(a == b, name + ": the same seed gives byte-identical molecules");
    expect(a != c, name + ": another seed gives another stream");
  }
}

// A short traced run of every workload (one or two passes or cycles each,
// so the replay covers more than one large request).
void test_reconciliation() {
  for (const std::string& name : perfbench::workload_names()) {
    perfbench::RunArgs args;
    args.workload = name;
    args.seed = 3;
    args.seconds = 6.0;
    args.trace = true;
    const perfbench::RunReport report = perfbench::run_workload(args);
    expect(report.correct() && report.attempted > 0,
           "traced " + name + ": every answer matches its reference");
    const auto check_gap = [&](const char* metric, const char* what) {
      double gap = -1.0;
      for (const perfbench::Metric& m : report.metrics)
        if (m.name == metric) gap = m.value;
      char buf[200];
      std::snprintf(buf, sizeof(buf), "traced %s: %s (%s %.3f <= %.2f)", name.c_str(), what,
                    metric, gap, perfbench::kReconcileTolerance);
      expect(gap >= 0.0 && gap <= perfbench::kReconcileTolerance, buf);
    };
    check_gap("trace.reconcile_gap",
              "layer self times reconcile with the traced service time");
    check_gap("trace.kernel_reconcile_gap",
              "list and kernel stage times reconcile with an untraced serial run");
  }
}

}  // namespace

int main() {
  test_stats();
  test_open_loop_stall();
  test_closed_loop();
  test_tracer();
  test_seed_determinism();
  test_reconciliation();
  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
