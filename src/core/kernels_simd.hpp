// Explicit-SIMD near-field kernels with runtime CPU dispatch.
//
// The SoA kernels in core/approx_math.hpp rely on autovectorization, which
// works for the polynomial Born kernel but leaves the E_pol kernel serialized
// on scalar libm exp/sqrt calls. This layer adds two hand-written tiers of
// the same four kernels, each in its own translation unit with its own ISA
// flags:
//
//   kAvx2   (core/kernels_simd_avx2.cpp, -mavx2 -mfma): 4 lanes
//   kAvx512 (core/kernels_simd_avx512.cpp, -mavx512f/dq/vl -mfma): 8 lanes
//
//   born_near_r6 / born_near_r4   — signature of born_near_soa<6|4>
//   epol_near_exact               — epol_near_soa<false>, with a vector
//                                   exp and rsqrt+Newton
//   epol_near_approx              — epol_near_soa<true>, bit-for-bit AVX2
//                                   replication of fast_rsqrt/fast_exp (the
//                                   kAvx512 table reuses the AVX2 kernel)
//
// Dispatch policy (resolved once, refreshable for tests):
//   1. The request is the simd_set_override value, else GBPOL_SIMD from the
//      environment; both take the grammar documented at simd_set_override.
//   2. "off"/"0"/"scalar"/"soa" force the SoA path; "avx2" pins kAvx2;
//      anything else picks the best tier.
//   3. A tier is eligible iff its TU was compiled in (x86 toolchain with the
//      flags + GBPOL_SIMD=ON at configure time) AND the CPU reports its ISA
//      (AVX2+FMA; kAvx512 also needs AVX-512F/DQ/VL). The best tier is the
//      widest eligible one; an ineligible request falls back to SoA, which is
//      correct on any hardware.
//
// Determinism contract: each tier is deterministic on its own (fixed lane
// widths, fixed horizontal-sum order, per-row results independent of
// blocking), so the canonical ascending-chunk fold keeps kStatic/kCostModel/
// kSteal bit-identical WITHIN a tier. Across tiers results differ only by FP
// reassociation and the rsqrt/rcp-Newton and exp-polynomial vs libm
// rounding, pinned <= 1e-10 relative (<= 1e-8 for approx math) against SoA
// on the golden molecules by tests/kernels_simd_test.cpp. Checkpoint job
// keys fold in the tier, so a run never resumes partials of another tier.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace gbpol {

enum class SimdDispatch : int { kSoA = 0, kAvx2 = 1, kAvx512 = 2 };

// Function-pointer table so the solvers' inner loops pay one indirect call
// per LEAF PAIR (hundreds of point pairs), not per point.
struct SimdKernelTable {
  using BornNearFn = void (*)(const double* qx, const double* qy, const double* qz,
                              const double* wx, const double* wy, const double* wz,
                              std::uint32_t q_begin, std::uint32_t q_end,
                              const double* ax, const double* ay, const double* az,
                              std::uint32_t a_begin, std::uint32_t a_end,
                              double* atom_s);
  using EpolNearFn = double (*)(const double* x, const double* y, const double* z,
                                const double* charge, const double* born,
                                std::uint32_t u_begin, std::uint32_t u_end,
                                std::uint32_t v_begin, std::uint32_t v_end);

  BornNearFn born_near_r6 = nullptr;
  BornNearFn born_near_r4 = nullptr;
  EpolNearFn epol_near_exact = nullptr;
  EpolNearFn epol_near_approx = nullptr;
};

// True when the tier's translation unit was compiled into this binary
// (kSoA: always).
bool simd_kernels_compiled(SimdDispatch tier);
// True when the running CPU reports the tier's ISA extensions (kSoA: always).
bool simd_cpu_supported(SimdDispatch tier);
// Both of the above: the tier's kernels can run here.
bool simd_tier_available(SimdDispatch tier);

// Resolved dispatch for this process (cached after the first call).
SimdDispatch simd_dispatch();
// Re-resolves from the override + environment + CPU; tests flip GBPOL_SIMD
// at runtime.
void simd_dispatch_refresh();

// Explicit dispatch override — the documented absorption of the GBPOL_SIMD
// side channel (RunOptions::simd, core/engine.hpp). Grammar matches the env
// var: "off" / "0" / "scalar" / "soa" force the SoA path; "avx2" pins the
// AVX2 tier (SoA when the TU or CPU lacks it); "on" picks the best tier even
// when GBPOL_SIMD says otherwise; "" / "auto" clear the override so
// GBPOL_SIMD + CPUID decide again (best tier unless the env forces one).
// The override wins over the environment and re-resolves the process-wide
// dispatch immediately (kernel dispatch is inherently process-global state).
void simd_set_override(const std::string& value);
// The override currently in force ("" = none; env + CPUID decide).
std::string simd_override();

const char* simd_dispatch_name(SimdDispatch d);
inline const char* simd_dispatch_name() { return simd_dispatch_name(simd_dispatch()); }

// Kernel table for a dispatch value; nullptr for kSoA (callers fall back to
// the approx_math SoA kernels) or when the tier's TU is not compiled in. A
// non-null table still needs simd_cpu_supported(tier) before it is called.
const SimdKernelTable* simd_kernel_table(SimdDispatch d);
inline const SimdKernelTable* simd_kernel_table() {
  return simd_kernel_table(simd_dispatch());
}

// Accuracy probes for a tier's exact-path primitives (rsqrt+Newton and the
// vector exp), mirroring fast_rsqrt_max_rel_error / fast_exp_max_rel_error
// in core/approx_math.hpp. Return a negative value for kSoA (no vector
// primitives) and when the tier is not available.
double simd_rsqrt_max_rel_error(SimdDispatch tier, double lo, double hi, int samples);
double simd_exp_max_rel_error(SimdDispatch tier, double lo, double hi, int samples);

// Throughput probes for the ablation bench: sum of 1/sqrt(x) (resp. exp(x))
// over xs[0..n) using a tier's primitives. Return 0.0 when unavailable.
double simd_rsqrt_sum(SimdDispatch tier, const double* xs, std::size_t n);
double simd_exp_sum(SimdDispatch tier, const double* xs, std::size_t n);

}  // namespace gbpol
