// AVX2/FMA implementations of the near-field kernels. This TU is compiled
// with -mavx2 -mfma (see src/CMakeLists.txt) and must therefore export ONLY
// symbols unique to itself: no inline/template definitions shared with other
// TUs may be instantiated here, or the linker could pick an AVX2-compiled
// copy for code that runs on pre-AVX2 hardware. Everything below is either
// file-local (anonymous namespace) or a gbpol::detail function that the
// dispatcher (core/kernels_simd.cpp) only calls after a CPUID check.
//
// Numerical design, per kernel:
//  * born_near_r6/r4 — same 8-atom-lane/scalar-q structure as born_near_soa
//    (core/approx_math.hpp), with 1/d2 computed as a vrcpps estimate refined
//    by two Newton iterations (~2e-14 relative) and the d2>0 guard as a
//    bitwise mask. Remainder rows reuse the exact scalar formula.
//  * epol_near_exact — 4 v-lanes per step; 1/sqrt(f2) as vrsqrtps + two
//    Newton iterations, exp via a Cephes-style rational polynomial with
//    Cody-Waite range reduction (~2 ulp), 1/(4 R_u R_v) as vrcpps + two
//    Newton iterations. This removes the scalar libm calls that serialize
//    the SoA path.
//  * epol_near_approx — bit-for-bit vector replication of fast_rsqrt /
//    fast_exp (the Schraudolph/Quake integer constructions), so the
//    approx-math ablation measures the same approximation in both paths.
//
// Horizontal sums run in fixed lane order (((l0+l1)+l2)+l3) and each row's
// vector/tail split depends only on the range bounds, so the kernels are
// deterministic for a fixed input — the property the canonical chunk fold
// relies on.
#include "core/kernels_simd.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <cmath>

namespace gbpol {
namespace {

using std::uint32_t;

// ---------------------------------------------------------------- primitives

// 1/x: vrcpps 12-bit estimate + 2 Newton iterations y <- y(2 - x y).
// Quadratic convergence: 3.7e-4 -> 1.4e-7 -> ~2e-14 relative, two decades
// inside the 1e-10 cross-path drift budget; a third iteration would only
// burn FMA-port uops the near kernels are bound on.
inline __m256d rcp_newton_pd(__m256d x) {
  __m256d y = _mm256_cvtps_pd(_mm_rcp_ps(_mm256_cvtpd_ps(x)));
  const __m256d two = _mm256_set1_pd(2.0);
  y = _mm256_mul_pd(y, _mm256_fnmadd_pd(x, y, two));
  y = _mm256_mul_pd(y, _mm256_fnmadd_pd(x, y, two));
  return y;
}

// 1/sqrt(x): vrsqrtps 12-bit estimate + 2 Newton iterations
// y <- y(1.5 - 0.5 x y^2); quadratic convergence reaches ~3e-14 relative
// (same budget argument as rcp_newton_pd above).
inline __m256d rsqrt_newton_pd(__m256d x) {
  __m256d y = _mm256_cvtps_pd(_mm_rsqrt_ps(_mm256_cvtpd_ps(x)));
  const __m256d half_x = _mm256_mul_pd(x, _mm256_set1_pd(0.5));
  const __m256d three_half = _mm256_set1_pd(1.5);
  for (int i = 0; i < 2; ++i) {
    const __m256d yy = _mm256_mul_pd(y, y);
    y = _mm256_mul_pd(y, _mm256_fnmadd_pd(half_x, yy, three_half));
  }
  return y;
}

// exp(x) for the E_pol operand range (x <= 0): Cody-Waite reduction
// x = n ln2 + r, Cephes rational polynomial for e^r, and 2^n applied by
// adding n to the exponent field. Clamped at +-708 so the exponent add
// cannot overflow; exp(-708) ~ 3e-308 is zero for every use here.
inline __m256d exp_pd(__m256d x) {
  const __m256d log2e = _mm256_set1_pd(1.4426950408889634073599);
  const __m256d c1 = _mm256_set1_pd(6.93145751953125e-1);
  const __m256d c2 = _mm256_set1_pd(1.42860682030941723212e-6);
  x = _mm256_max_pd(x, _mm256_set1_pd(-708.0));
  x = _mm256_min_pd(x, _mm256_set1_pd(708.0));
  const __m256d n =
      _mm256_round_pd(_mm256_mul_pd(x, log2e),
                      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  x = _mm256_fnmadd_pd(n, c1, x);
  x = _mm256_fnmadd_pd(n, c2, x);
  const __m256d xx = _mm256_mul_pd(x, x);
  __m256d px = _mm256_set1_pd(1.26177193074810590878e-4);
  px = _mm256_fmadd_pd(px, xx, _mm256_set1_pd(3.02994407707441961300e-2));
  px = _mm256_fmadd_pd(px, xx, _mm256_set1_pd(9.99999999999999999910e-1));
  px = _mm256_mul_pd(px, x);
  __m256d qx = _mm256_set1_pd(3.00198505138664455042e-6);
  qx = _mm256_fmadd_pd(qx, xx, _mm256_set1_pd(2.52448340349684104192e-3));
  qx = _mm256_fmadd_pd(qx, xx, _mm256_set1_pd(2.27265548208155028766e-1));
  qx = _mm256_fmadd_pd(qx, xx, _mm256_set1_pd(2.0));
  // e^r = 1 + 2 px/(qx - px); one vdivpd per 4 lanes keeps full accuracy.
  __m256d e = _mm256_div_pd(px, _mm256_sub_pd(qx, px));
  e = _mm256_fmadd_pd(e, _mm256_set1_pd(2.0), _mm256_set1_pd(1.0));
  // Scale by 2^n: n is integral and |n| <= 1075, so cvtpd -> epi32 is exact.
  const __m128i n32 = _mm256_cvtpd_epi32(n);
  const __m256i n64 = _mm256_cvtepi32_epi64(n32);
  const __m256i bits = _mm256_castpd_si256(e);
  return _mm256_castsi256_pd(_mm256_add_epi64(bits, _mm256_slli_epi64(n64, 52)));
}

// Vector replication of approx_math fast_rsqrt: same magic constant, same
// two Newton steps, so both dispatch paths measure the same approximation.
inline __m256d fast_rsqrt_pd(__m256d x) {
  const __m256i magic = _mm256_set1_epi64x(0x5fe6eb50c7b537a9LL);
  __m256d y = _mm256_castsi256_pd(
      _mm256_sub_epi64(magic, _mm256_srli_epi64(_mm256_castpd_si256(x), 1)));
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d three_half = _mm256_set1_pd(1.5);
  for (int i = 0; i < 2; ++i) {
    const __m256d t = _mm256_mul_pd(_mm256_mul_pd(half, x), _mm256_mul_pd(y, y));
    y = _mm256_mul_pd(y, _mm256_sub_pd(three_half, t));
  }
  return y;
}

// Vector replication of approx_math fast_exp (Schraudolph): build the result
// by writing kScale*x + kBias into the high 32 bits. The scalar version
// truncates via static_cast<int64>, so use the truncating cvttpd here; the
// operand (~1.07e9 max) fits int32.
inline __m256d fast_exp_pd(__m256d x) {
  const __m256d scale = _mm256_set1_pd(1048576.0 / 0.6931471805599453);
  const __m256d bias = _mm256_set1_pd(1072693248.0 - 60801.0);
  const __m256d keep = _mm256_cmp_pd(x, _mm256_set1_pd(-700.0), _CMP_GE_OQ);
  const __m256d t = _mm256_fmadd_pd(scale, x, bias);
  const __m128i hi32 = _mm256_cvttpd_epi32(t);
  const __m256i hi64 = _mm256_cvtepi32_epi64(hi32);
  const __m256d r = _mm256_castsi256_pd(_mm256_slli_epi64(hi64, 32));
  return _mm256_and_pd(r, keep);  // x < -700 underflows to exactly 0
}

// Fixed-order horizontal sum: ((l0 + l1) + l2) + l3.
inline double hsum_ordered(__m256d v) {
  alignas(32) double lane[4];
  _mm256_store_pd(lane, v);
  return ((lane[0] + lane[1]) + lane[2]) + lane[3];
}

// ------------------------------------------------------------- born kernels

// Mirrors born_near_soa: blocks of 8 atoms ride the lanes (two ymm
// accumulators), the q loop stays scalar, remainder rows fall back to the
// exact scalar formula so short leaves cost the same as the SoA path.
template <int Power>
void born_near_avx2(const double* qx, const double* qy, const double* qz,
                    const double* wx, const double* wy, const double* wz,
                    uint32_t q_begin, uint32_t q_end, const double* ax,
                    const double* ay, const double* az, uint32_t a_begin,
                    uint32_t a_end, double* atom_s) {
  static_assert(Power == 4 || Power == 6);
  const __m256d zero = _mm256_setzero_pd();
  uint32_t ai = a_begin;
  for (; ai + 8 <= a_end; ai += 8) {
    const __m256d ax0 = _mm256_loadu_pd(ax + ai), ax1 = _mm256_loadu_pd(ax + ai + 4);
    const __m256d ay0 = _mm256_loadu_pd(ay + ai), ay1 = _mm256_loadu_pd(ay + ai + 4);
    const __m256d az0 = _mm256_loadu_pd(az + ai), az1 = _mm256_loadu_pd(az + ai + 4);
    __m256d s0 = zero, s1 = zero;
    for (uint32_t qi = q_begin; qi < q_end; ++qi) {
      const __m256d cqx = _mm256_broadcast_sd(qx + qi);
      const __m256d cqy = _mm256_broadcast_sd(qy + qi);
      const __m256d cqz = _mm256_broadcast_sd(qz + qi);
      const __m256d cwx = _mm256_broadcast_sd(wx + qi);
      const __m256d cwy = _mm256_broadcast_sd(wy + qi);
      const __m256d cwz = _mm256_broadcast_sd(wz + qi);
      {
        const __m256d dx = _mm256_sub_pd(cqx, ax0);
        const __m256d dy = _mm256_sub_pd(cqy, ay0);
        const __m256d dz = _mm256_sub_pd(cqz, az0);
        const __m256d d2 =
            _mm256_fmadd_pd(dz, dz, _mm256_fmadd_pd(dy, dy, _mm256_mul_pd(dx, dx)));
        const __m256d mask = _mm256_cmp_pd(d2, zero, _CMP_GT_OQ);
        const __m256d inv2 = _mm256_and_pd(rcp_newton_pd(d2), mask);
        const __m256d wdot =
            _mm256_fmadd_pd(cwz, dz, _mm256_fmadd_pd(cwy, dy, _mm256_mul_pd(cwx, dx)));
        __m256d invp = _mm256_mul_pd(inv2, inv2);
        if constexpr (Power == 6) invp = _mm256_mul_pd(invp, inv2);
        s0 = _mm256_fmadd_pd(wdot, invp, s0);
      }
      {
        const __m256d dx = _mm256_sub_pd(cqx, ax1);
        const __m256d dy = _mm256_sub_pd(cqy, ay1);
        const __m256d dz = _mm256_sub_pd(cqz, az1);
        const __m256d d2 =
            _mm256_fmadd_pd(dz, dz, _mm256_fmadd_pd(dy, dy, _mm256_mul_pd(dx, dx)));
        const __m256d mask = _mm256_cmp_pd(d2, zero, _CMP_GT_OQ);
        const __m256d inv2 = _mm256_and_pd(rcp_newton_pd(d2), mask);
        const __m256d wdot =
            _mm256_fmadd_pd(cwz, dz, _mm256_fmadd_pd(cwy, dy, _mm256_mul_pd(cwx, dx)));
        __m256d invp = _mm256_mul_pd(inv2, inv2);
        if constexpr (Power == 6) invp = _mm256_mul_pd(invp, inv2);
        s1 = _mm256_fmadd_pd(wdot, invp, s1);
      }
    }
    _mm256_storeu_pd(atom_s + ai, _mm256_add_pd(_mm256_loadu_pd(atom_s + ai), s0));
    _mm256_storeu_pd(atom_s + ai + 4,
                     _mm256_add_pd(_mm256_loadu_pd(atom_s + ai + 4), s1));
  }
  for (; ai < a_end; ++ai) {
    const double px = ax[ai], py = ay[ai], pz = az[ai];
    double s = 0.0;
    for (uint32_t qi = q_begin; qi < q_end; ++qi) {
      const double dx = qx[qi] - px;
      const double dy = qy[qi] - py;
      const double dz = qz[qi] - pz;
      const double d2 = dx * dx + dy * dy + dz * dz;
      const double inv2 = d2 > 0.0 ? 1.0 / d2 : 0.0;
      const double wdot = wx[qi] * dx + wy[qi] * dy + wz[qi] * dz;
      if constexpr (Power == 6) {
        s += wdot * inv2 * inv2 * inv2;
      } else {
        s += wdot * inv2 * inv2;
      }
    }
    atom_s[ai] += s;
  }
}

// ------------------------------------------------------------- epol kernels

// One 4-lane step of the epol still-factor chain: 1 / sqrt(r2 + rr *
// exp(-r2/(4 rr))) for four already-loaded v-lanes. File-local and
// force-inlined so the unrolled caller gets two fully independent dependency
// chains.
template <bool kApproxMath>
[[gnu::always_inline]] inline __m256d epol_inv_f4(__m256d vx, __m256d vy,
                                                  __m256d vz, __m256d vb,
                                                  __m256d px, __m256d py,
                                                  __m256d pz, __m256d ru,
                                                  __m256d quarter) {
  const __m256d dx = _mm256_sub_pd(vx, px);
  const __m256d dy = _mm256_sub_pd(vy, py);
  const __m256d dz = _mm256_sub_pd(vz, pz);
  const __m256d r2 =
      _mm256_fmadd_pd(dz, dz, _mm256_fmadd_pd(dy, dy, _mm256_mul_pd(dx, dx)));
  const __m256d rr = _mm256_mul_pd(ru, vb);
  if constexpr (kApproxMath) {
    // fast_exp(-r2 / (4 rr)) — scalar divides, so divide here too.
    const __m256d arg = _mm256_div_pd(
        _mm256_sub_pd(_mm256_setzero_pd(), r2),
        _mm256_mul_pd(_mm256_set1_pd(4.0), rr));
    const __m256d f2 = _mm256_fmadd_pd(rr, fast_exp_pd(arg), r2);
    return fast_rsqrt_pd(f2);
  } else {
    // -r2/(4 rr) via rcp+Newton (~1 ulp) dodges a second vdivpd.
    const __m256d arg = _mm256_mul_pd(
        _mm256_sub_pd(_mm256_setzero_pd(), r2),
        _mm256_mul_pd(quarter, rcp_newton_pd(rr)));
    const __m256d f2 = _mm256_fmadd_pd(rr, exp_pd(arg), r2);
    return rsqrt_newton_pd(f2);
  }
}

// Lane masks for a partial final step: kTailMask + 4 - rem yields a vector
// whose first `rem` lanes are all-ones.
alignas(32) constexpr int64_t kTailMask[8] = {-1, -1, -1, -1, 0, 0, 0, 0};

// Mirrors epol_near_soa, but blocked over u: four u-rows advance together
// through the v range, sharing every v-side load and giving four independent
// exp/rsqrt Newton chains (~90 cycles deep each) for the out-of-order core to
// overlap — near-list rows are short (atoms-tree leaves hold 14.5 atoms on
// average at leaf capacity 32), so unrolling *within* a row never gets the
// chains in flight; unrolling *across* rows does. The
// 1..3 leftover v lanes run a MASKED step — maskload suppresses faults on
// inactive lanes, blending born to 1.0 there keeps f2 = r2 + rr*exp strictly
// positive (no NaN), and charge loads as 0.0 so inactive lanes contribute
// nothing. The whole sweep runs one formula family (no scalar libm tail),
// and each row's fold — v-blocks in ascending order, then hsum — is a pure
// function of the (u, v) ranges, so results stay deterministic for any
// tiling or schedule.
template <bool kApproxMath>
double epol_near_avx2(const double* x, const double* y, const double* z,
                      const double* charge, const double* born, uint32_t u_begin,
                      uint32_t u_end, uint32_t v_begin, uint32_t v_end) {
  const __m256d quarter = _mm256_set1_pd(0.25);
  const __m256d one = _mm256_set1_pd(1.0);
  const uint32_t v_full_end = v_begin + ((v_end - v_begin) & ~3u);
  const uint32_t rem = v_end - v_full_end;  // 0..3
  const __m256i tail_mask = _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kTailMask + 4 - rem));
  const __m256d tail_maskd = _mm256_castsi256_pd(tail_mask);
  double sum = 0.0;
  uint32_t ui = u_begin;
  for (; ui + 4 <= u_end; ui += 4) {
    const __m256d px0 = _mm256_broadcast_sd(x + ui);
    const __m256d py0 = _mm256_broadcast_sd(y + ui);
    const __m256d pz0 = _mm256_broadcast_sd(z + ui);
    const __m256d ru0 = _mm256_broadcast_sd(born + ui);
    const __m256d px1 = _mm256_broadcast_sd(x + ui + 1);
    const __m256d py1 = _mm256_broadcast_sd(y + ui + 1);
    const __m256d pz1 = _mm256_broadcast_sd(z + ui + 1);
    const __m256d ru1 = _mm256_broadcast_sd(born + ui + 1);
    const __m256d px2 = _mm256_broadcast_sd(x + ui + 2);
    const __m256d py2 = _mm256_broadcast_sd(y + ui + 2);
    const __m256d pz2 = _mm256_broadcast_sd(z + ui + 2);
    const __m256d ru2 = _mm256_broadcast_sd(born + ui + 2);
    const __m256d px3 = _mm256_broadcast_sd(x + ui + 3);
    const __m256d py3 = _mm256_broadcast_sd(y + ui + 3);
    const __m256d pz3 = _mm256_broadcast_sd(z + ui + 3);
    const __m256d ru3 = _mm256_broadcast_sd(born + ui + 3);
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    __m256d acc2 = _mm256_setzero_pd();
    __m256d acc3 = _mm256_setzero_pd();
    for (uint32_t vi = v_begin; vi < v_full_end; vi += 4) {
      const __m256d vx = _mm256_loadu_pd(x + vi);
      const __m256d vy = _mm256_loadu_pd(y + vi);
      const __m256d vz = _mm256_loadu_pd(z + vi);
      const __m256d vb = _mm256_loadu_pd(born + vi);
      const __m256d vq = _mm256_loadu_pd(charge + vi);
      acc0 = _mm256_fmadd_pd(
          vq, epol_inv_f4<kApproxMath>(vx, vy, vz, vb, px0, py0, pz0, ru0, quarter),
          acc0);
      acc1 = _mm256_fmadd_pd(
          vq, epol_inv_f4<kApproxMath>(vx, vy, vz, vb, px1, py1, pz1, ru1, quarter),
          acc1);
      acc2 = _mm256_fmadd_pd(
          vq, epol_inv_f4<kApproxMath>(vx, vy, vz, vb, px2, py2, pz2, ru2, quarter),
          acc2);
      acc3 = _mm256_fmadd_pd(
          vq, epol_inv_f4<kApproxMath>(vx, vy, vz, vb, px3, py3, pz3, ru3, quarter),
          acc3);
    }
    if (rem != 0) {
      const uint32_t vi = v_full_end;
      const __m256d vx = _mm256_maskload_pd(x + vi, tail_mask);
      const __m256d vy = _mm256_maskload_pd(y + vi, tail_mask);
      const __m256d vz = _mm256_maskload_pd(z + vi, tail_mask);
      const __m256d vb = _mm256_blendv_pd(
          one, _mm256_maskload_pd(born + vi, tail_mask), tail_maskd);
      const __m256d vq = _mm256_maskload_pd(charge + vi, tail_mask);
      acc0 = _mm256_fmadd_pd(
          vq, epol_inv_f4<kApproxMath>(vx, vy, vz, vb, px0, py0, pz0, ru0, quarter),
          acc0);
      acc1 = _mm256_fmadd_pd(
          vq, epol_inv_f4<kApproxMath>(vx, vy, vz, vb, px1, py1, pz1, ru1, quarter),
          acc1);
      acc2 = _mm256_fmadd_pd(
          vq, epol_inv_f4<kApproxMath>(vx, vy, vz, vb, px2, py2, pz2, ru2, quarter),
          acc2);
      acc3 = _mm256_fmadd_pd(
          vq, epol_inv_f4<kApproxMath>(vx, vy, vz, vb, px3, py3, pz3, ru3, quarter),
          acc3);
    }
    sum += charge[ui] * hsum_ordered(acc0);
    sum += charge[ui + 1] * hsum_ordered(acc1);
    sum += charge[ui + 2] * hsum_ordered(acc2);
    sum += charge[ui + 3] * hsum_ordered(acc3);
  }
  for (; ui < u_end; ++ui) {
    const __m256d px = _mm256_broadcast_sd(x + ui);
    const __m256d py = _mm256_broadcast_sd(y + ui);
    const __m256d pz = _mm256_broadcast_sd(z + ui);
    const __m256d ru = _mm256_broadcast_sd(born + ui);
    __m256d acc = _mm256_setzero_pd();
    for (uint32_t vi = v_begin; vi < v_full_end; vi += 4) {
      const __m256d f = epol_inv_f4<kApproxMath>(
          _mm256_loadu_pd(x + vi), _mm256_loadu_pd(y + vi),
          _mm256_loadu_pd(z + vi), _mm256_loadu_pd(born + vi), px, py, pz, ru,
          quarter);
      acc = _mm256_fmadd_pd(_mm256_loadu_pd(charge + vi), f, acc);
    }
    if (rem != 0) {
      const uint32_t vi = v_full_end;
      const __m256d vb = _mm256_blendv_pd(
          one, _mm256_maskload_pd(born + vi, tail_mask), tail_maskd);
      const __m256d f = epol_inv_f4<kApproxMath>(
          _mm256_maskload_pd(x + vi, tail_mask),
          _mm256_maskload_pd(y + vi, tail_mask),
          _mm256_maskload_pd(z + vi, tail_mask), vb, px, py, pz, ru, quarter);
      acc = _mm256_fmadd_pd(_mm256_maskload_pd(charge + vi, tail_mask), f, acc);
    }
    sum += charge[ui] * hsum_ordered(acc);
  }
  return sum;
}

const SimdKernelTable kAvx2Table = {
    &born_near_avx2<6>,
    &born_near_avx2<4>,
    &epol_near_avx2<false>,
    &epol_near_avx2<true>,
};

}  // namespace

namespace detail {

const SimdKernelTable* avx2_kernel_table() { return &kAvx2Table; }

double avx2_rsqrt_max_rel_error(double lo, double hi, int samples) {
  double worst = 0.0;
  for (int i = 0; i < samples; ++i) {
    const double t = static_cast<double>(i) / (samples > 1 ? samples - 1 : 1);
    const double v = lo + (hi - lo) * t;
    if (v <= 0.0) continue;
    alignas(32) double lane[4];
    _mm256_store_pd(lane, rsqrt_newton_pd(_mm256_set1_pd(v)));
    const double exact = 1.0 / std::sqrt(v);
    const double err = std::abs(lane[0] - exact) / exact;
    if (err > worst) worst = err;
  }
  return worst;
}

double avx2_exp_max_rel_error(double lo, double hi, int samples) {
  double worst = 0.0;
  for (int i = 0; i < samples; ++i) {
    const double t = static_cast<double>(i) / (samples > 1 ? samples - 1 : 1);
    const double v = lo + (hi - lo) * t;
    const double exact = std::exp(v);
    if (exact == 0.0) continue;
    alignas(32) double lane[4];
    _mm256_store_pd(lane, exp_pd(_mm256_set1_pd(v)));
    const double err = std::abs(lane[0] - exact) / exact;
    if (err > worst) worst = err;
  }
  return worst;
}

double avx2_rsqrt_sum(const double* xs, std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    acc = _mm256_add_pd(acc, rsqrt_newton_pd(_mm256_loadu_pd(xs + i)));
  double sum = hsum_ordered(acc);
  for (; i < n; ++i) {
    alignas(32) double lane[4];
    _mm256_store_pd(lane, rsqrt_newton_pd(_mm256_set1_pd(xs[i])));
    sum += lane[0];
  }
  return sum;
}

double avx2_exp_sum(const double* xs, std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    acc = _mm256_add_pd(acc, exp_pd(_mm256_loadu_pd(xs + i)));
  double sum = hsum_ordered(acc);
  for (; i < n; ++i) {
    alignas(32) double lane[4];
    _mm256_store_pd(lane, exp_pd(_mm256_set1_pd(xs[i])));
    sum += lane[0];
  }
  return sum;
}

}  // namespace detail
}  // namespace gbpol

#else  // !(__AVX2__ && __FMA__): stub so the dispatcher links everywhere.

namespace gbpol::detail {

const SimdKernelTable* avx2_kernel_table() { return nullptr; }
double avx2_rsqrt_max_rel_error(double, double, int) { return -1.0; }
double avx2_exp_max_rel_error(double, double, int) { return -1.0; }
double avx2_rsqrt_sum(const double*, std::size_t) { return 0.0; }
double avx2_exp_sum(const double*, std::size_t) { return 0.0; }

}  // namespace gbpol::detail

#endif
