// Ablation (§V-E): approximate math on/off. Paper: turning approximate math
// on shifted the error by 4-5% and reduced running times by ~1.42x on
// average.
//
// Besides the molecule-level A/B, this bench records the PRIMITIVE-level
// accuracy/speed point: scalar libm vs scalar fast_rsqrt/fast_exp
// (Schraudolph/Quake) vs the AVX2 rsqrt-with-Newton-refinement and vector
// exp that the SIMD dispatch path substitutes for libm. Written to
// bench_out/ablation_math_primitives.json. GBPOL_ABLATION_FAST=1 runs only
// this primitive probe (used by scripts/check.sh; the molecule suite needs
// naive reference runs that take minutes).
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "bench_common.hpp"
#include "core/approx_math.hpp"
#include "core/drivers.hpp"
#include "core/kernels_simd.hpp"
#include "core/naive.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace {

using namespace gbpol;

// Best-of-reps seconds for summing fn over xs (DoNotOptimize-style sink via
// volatile so the loop is not folded away).
template <typename F>
double best_sum_seconds(const std::vector<double>& xs, int reps, F&& fn) {
  volatile double sink = 0.0;
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    sink = sink + fn(xs.data(), xs.size());
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

// Accuracy + throughput of the three math-primitive tiers over the operand
// ranges the E_pol kernel actually sees (rsqrt over f_GB^2, exp over the
// negative still-factor argument).
void emit_primitives_point() {
  constexpr int kSamples = 20001;
  constexpr int kReps = 7;
  constexpr std::size_t kN = 1u << 16;

  // Accuracy: max relative error vs libm on a dense sweep.
  const double fast_rsqrt_err = fast_rsqrt_max_rel_error(1e-2, 1e4, kSamples);
  const double fast_exp_err = fast_exp_max_rel_error(-40.0, 0.0, kSamples);
  const SimdDispatch tier = simd_dispatch();
  const double simd_rsqrt_err = simd_rsqrt_max_rel_error(tier, 1e-2, 1e4, kSamples);
  const double simd_exp_err = simd_exp_max_rel_error(tier, -40.0, 0.0, kSamples);

  // Throughput: sum of 1/sqrt(x) resp. exp(x) over a fixed random array.
  Rng rng(2012);
  std::vector<double> rs(kN), es(kN);
  for (double& v : rs) v = rng.uniform(1e-2, 1e4);
  for (double& v : es) v = rng.uniform(-40.0, 0.0);

  const double libm_rsqrt_s = best_sum_seconds(rs, kReps, [](const double* x, std::size_t n) {
    double s = 0.0;
    for (std::size_t i = 0; i < n; ++i) s += 1.0 / std::sqrt(x[i]);
    return s;
  });
  const double fast_rsqrt_s = best_sum_seconds(rs, kReps, [](const double* x, std::size_t n) {
    double s = 0.0;
    for (std::size_t i = 0; i < n; ++i) s += fast_rsqrt(x[i]);
    return s;
  });
  const double libm_exp_s = best_sum_seconds(es, kReps, [](const double* x, std::size_t n) {
    double s = 0.0;
    for (std::size_t i = 0; i < n; ++i) s += std::exp(x[i]);
    return s;
  });
  const double fast_exp_s = best_sum_seconds(es, kReps, [](const double* x, std::size_t n) {
    double s = 0.0;
    for (std::size_t i = 0; i < n; ++i) s += fast_exp(x[i]);
    return s;
  });
  const bool simd = simd_kernel_table() != nullptr;
  const double simd_rsqrt_s =
      simd ? best_sum_seconds(rs, kReps, [tier](const double* x, std::size_t n) {
        return simd_rsqrt_sum(tier, x, n);
      })
           : 0.0;
  const double simd_exp_s =
      simd ? best_sum_seconds(es, kReps, [tier](const double* x, std::size_t n) {
        return simd_exp_sum(tier, x, n);
      })
           : 0.0;

  std::error_code ec;
  std::filesystem::create_directories("bench_out", ec);
  std::ofstream out("bench_out/ablation_math_primitives.json");
  if (out) {
    out << "{\n";
    out << "  \"dispatch_path\": \"" << simd_dispatch_name() << "\",\n";
    out << "  \"samples\": " << kSamples << ", \"array_n\": " << kN << ",\n";
    out << "  \"rsqrt\": {\"fast_max_rel_error\": " << fast_rsqrt_err
        << ", \"simd_newton_max_rel_error\": " << simd_rsqrt_err
        << ", \"libm_seconds\": " << libm_rsqrt_s
        << ", \"fast_seconds\": " << fast_rsqrt_s
        << ", \"simd_newton_seconds\": " << simd_rsqrt_s << "},\n";
    out << "  \"exp\": {\"fast_max_rel_error\": " << fast_exp_err
        << ", \"simd_max_rel_error\": " << simd_exp_err
        << ", \"libm_seconds\": " << libm_exp_s
        << ", \"fast_seconds\": " << fast_exp_s
        << ", \"simd_seconds\": " << simd_exp_s << "}\n";
    out << "}\n";
    std::printf("wrote bench_out/ablation_math_primitives.json\n");
  }

  std::printf("\nmath primitives (dispatch: %s, max rel err vs libm | time for %zu ops)\n",
              simd_dispatch_name(), kN);
  std::printf("  rsqrt: fast %.2e | simd-newton %.2e ; libm %.4fs fast %.4fs simd %.4fs\n",
              fast_rsqrt_err, simd_rsqrt_err, libm_rsqrt_s, fast_rsqrt_s, simd_rsqrt_s);
  std::printf("  exp:   fast %.2e | simd        %.2e ; libm %.4fs fast %.4fs simd %.4fs\n",
              fast_exp_err, simd_exp_err, libm_exp_s, fast_exp_s, simd_exp_s);
}

}  // namespace

int main() {
  using namespace gbpol;
  using namespace gbpol::bench;

  harness::print_figure_header("Ablation", "Approximate math (fast rsqrt/exp) on vs off");

  if (const char* fast = std::getenv("GBPOL_ABLATION_FAST");
      fast != nullptr && fast[0] == '1') {
    emit_primitives_point();
    return 0;
  }

  const auto suite = suite_subset(/*stride=*/12, /*max_atoms=*/8000);
  std::printf("%zu molecules\n", suite.size());

  const GBConstants constants;
  RunningStats speedup_stats, shift_stats;
  Table table({"atoms", "time off(s)", "time on(s)", "speedup", "err off(%)",
               "err on(%)"});
  for (const Molecule& mol : suite) {
    const PreparedMolecule pm = prepare(mol);
    const NaiveResult naive = run_naive(pm.mol, pm.quad, constants);
    ApproxParams off;
    ApproxParams on;
    on.approx_math = true;
    // Serial driver isolates the kernel cost from scheduling noise.
    const RunResult r_off = Engine(pm.prep, off, constants).run(serial_options());
    const RunResult r_on = Engine(pm.prep, on, constants).run(serial_options());
    const double speedup = r_off.compute_seconds / r_on.compute_seconds;
    const double err_off = percent_error(r_off.energy, naive.energy);
    const double err_on = percent_error(r_on.energy, naive.energy);
    speedup_stats.add(speedup);
    shift_stats.add(err_on - err_off);
    table.add_row({Table::integer(static_cast<long long>(mol.size())),
                   Table::num(r_off.compute_seconds, 4), Table::num(r_on.compute_seconds, 4),
                   Table::num(speedup, 3), Table::num(err_off, 4), Table::num(err_on, 4)});
  }
  harness::emit_table(table, "ablation_approx_math");
  std::printf("\naverage speedup %.3fx (paper: ~1.42x); average error shift %+.2f%% "
              "(paper: 4-5%%)\n",
              speedup_stats.mean(), shift_stats.mean());
  emit_primitives_point();
  return 0;
}
