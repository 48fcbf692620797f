#include "core/kernels_simd.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace gbpol {

// Implemented in core/kernels_simd_avx2.cpp and core/kernels_simd_avx512.cpp.
// Both TUs are always part of the build; when one is compiled WITHOUT its ISA
// flags (non-x86 toolchain, a compiler lacking the flags, or
// -DGBPOL_SIMD=OFF) its table accessor returns nullptr and its probes report
// "unavailable", so this dispatcher needs no preprocessor coupling.
namespace detail {
const SimdKernelTable* avx2_kernel_table();
double avx2_rsqrt_max_rel_error(double lo, double hi, int samples);
double avx2_exp_max_rel_error(double lo, double hi, int samples);
double avx2_rsqrt_sum(const double* xs, std::size_t n);
double avx2_exp_sum(const double* xs, std::size_t n);

const SimdKernelTable* avx512_kernel_table();
double avx512_rsqrt_max_rel_error(double lo, double hi, int samples);
double avx512_exp_max_rel_error(double lo, double hi, int samples);
double avx512_rsqrt_sum(const double* xs, std::size_t n);
double avx512_exp_sum(const double* xs, std::size_t n);
}  // namespace detail

namespace {

// The AVX-512 TU's kernels plus the AVX2 approx kernel. Composed here, in
// baseline code, so building it runs no AVX-512 instruction on any host.
const SimdKernelTable* avx512_composed_table() {
  static const SimdKernelTable* const table = []() -> const SimdKernelTable* {
    const SimdKernelTable* wide = detail::avx512_kernel_table();
    const SimdKernelTable* avx2 = detail::avx2_kernel_table();
    if (wide == nullptr || avx2 == nullptr) return nullptr;
    static SimdKernelTable composed = *wide;
    composed.epol_near_approx = avx2->epol_near_approx;
    return &composed;
  }();
  return table;
}

}  // namespace

const SimdKernelTable* simd_kernel_table(SimdDispatch d) {
  switch (d) {
    case SimdDispatch::kAvx2:
      return detail::avx2_kernel_table();
    case SimdDispatch::kAvx512:
      return avx512_composed_table();
    case SimdDispatch::kSoA:
      break;
  }
  return nullptr;
}

bool simd_kernels_compiled(SimdDispatch tier) {
  return tier == SimdDispatch::kSoA || simd_kernel_table(tier) != nullptr;
}

bool simd_cpu_supported(SimdDispatch tier) {
#if defined(__x86_64__) || defined(__i386__)
  const bool avx2 = __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  switch (tier) {
    case SimdDispatch::kSoA:
      return true;
    case SimdDispatch::kAvx2:
      return avx2;
    case SimdDispatch::kAvx512:
      return avx2 && __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx512dq") && __builtin_cpu_supports("avx512vl");
  }
  return false;
#else
  return tier == SimdDispatch::kSoA;
#endif
}

bool simd_tier_available(SimdDispatch tier) {
  return simd_kernels_compiled(tier) && simd_cpu_supported(tier);
}

namespace {

bool is_soa_token(const char* v) {
  return std::strcmp(v, "off") == 0 || std::strcmp(v, "0") == 0 ||
         std::strcmp(v, "scalar") == 0 || std::strcmp(v, "soa") == 0;
}

// A parsed dispatch request: force SoA, pin AVX2, or take the best tier.
enum Request : int { kNone = -1, kForceSoA = 0, kPinAvx2 = 1, kBest = 2 };

// Explicit override (simd_set_override); kNone lets GBPOL_SIMD decide.
std::atomic<int> g_override{kNone};

SimdDispatch best_tier() {
  for (const SimdDispatch d : {SimdDispatch::kAvx512, SimdDispatch::kAvx2})
    if (simd_tier_available(d)) return d;
  return SimdDispatch::kSoA;
}

SimdDispatch resolve_dispatch() {
  int req = g_override.load(std::memory_order_relaxed);
  if (req == kNone) {
    req = kBest;
    if (const char* env = std::getenv("GBPOL_SIMD")) {
      if (is_soa_token(env))
        req = kForceSoA;
      else if (std::strcmp(env, "avx2") == 0)
        req = kPinAvx2;
    }
  }
  switch (req) {
    case kForceSoA:
      return SimdDispatch::kSoA;
    case kPinAvx2:
      return simd_tier_available(SimdDispatch::kAvx2) ? SimdDispatch::kAvx2
                                                      : SimdDispatch::kSoA;
    default:
      return best_tier();
  }
}

// -1 = unresolved. Not a function-local static: tests flip GBPOL_SIMD at
// runtime and call simd_dispatch_refresh() to re-resolve.
std::atomic<int> g_dispatch{-1};

}  // namespace

void simd_set_override(const std::string& value) {
  int req = kNone;
  if (is_soa_token(value.c_str()))
    req = kForceSoA;
  else if (value == "avx2")
    req = kPinAvx2;
  else if (value == "on")
    req = kBest;
  else if (!value.empty() && value != "auto")
    std::fprintf(stderr,
                 "gbpol: unknown simd override '%s' (expected off|0|scalar|soa|"
                 "avx2|on|auto); resolving as auto\n",
                 value.c_str());
  g_override.store(req, std::memory_order_relaxed);
  simd_dispatch_refresh();
}

std::string simd_override() {
  switch (g_override.load(std::memory_order_relaxed)) {
    case kForceSoA: return "soa";
    case kPinAvx2: return "avx2";
    case kBest: return "on";
    default: return {};
  }
}

SimdDispatch simd_dispatch() {
  int d = g_dispatch.load(std::memory_order_relaxed);
  if (d < 0) {
    d = static_cast<int>(resolve_dispatch());
    g_dispatch.store(d, std::memory_order_relaxed);
  }
  return static_cast<SimdDispatch>(d);
}

void simd_dispatch_refresh() {
  g_dispatch.store(static_cast<int>(resolve_dispatch()), std::memory_order_relaxed);
}

const char* simd_dispatch_name(SimdDispatch d) {
  switch (d) {
    case SimdDispatch::kAvx512:
      return "avx512";
    case SimdDispatch::kAvx2:
      return "avx2";
    case SimdDispatch::kSoA:
      return "soa";
  }
  return "unknown";
}

double simd_rsqrt_max_rel_error(SimdDispatch tier, double lo, double hi, int samples) {
  if (tier == SimdDispatch::kSoA || !simd_tier_available(tier)) return -1.0;
  return tier == SimdDispatch::kAvx512
             ? detail::avx512_rsqrt_max_rel_error(lo, hi, samples)
             : detail::avx2_rsqrt_max_rel_error(lo, hi, samples);
}

double simd_exp_max_rel_error(SimdDispatch tier, double lo, double hi, int samples) {
  if (tier == SimdDispatch::kSoA || !simd_tier_available(tier)) return -1.0;
  return tier == SimdDispatch::kAvx512 ? detail::avx512_exp_max_rel_error(lo, hi, samples)
                                       : detail::avx2_exp_max_rel_error(lo, hi, samples);
}

double simd_rsqrt_sum(SimdDispatch tier, const double* xs, std::size_t n) {
  if (tier == SimdDispatch::kSoA || !simd_tier_available(tier)) return 0.0;
  return tier == SimdDispatch::kAvx512 ? detail::avx512_rsqrt_sum(xs, n)
                                       : detail::avx2_rsqrt_sum(xs, n);
}

double simd_exp_sum(SimdDispatch tier, const double* xs, std::size_t n) {
  if (tier == SimdDispatch::kSoA || !simd_tier_available(tier)) return 0.0;
  return tier == SimdDispatch::kAvx512 ? detail::avx512_exp_sum(xs, n)
                                       : detail::avx2_exp_sum(xs, n);
}

}  // namespace gbpol
