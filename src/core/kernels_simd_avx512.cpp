// AVX-512 implementations of the exact near-field kernels. This TU is
// compiled with -mavx512f -mavx512dq -mavx512vl -mfma (see
// src/CMakeLists.txt) and follows the rules of core/kernels_simd_avx2.cpp:
// it exports ONLY symbols unique to itself (no inline/template definition
// shared with another TU is instantiated here, so the linker can never pick
// an AVX-512-compiled copy for code that runs on older hardware), and the
// dispatcher (core/kernels_simd.cpp) only calls in after a CPUID check.
//
// Numerical design, per kernel:
//  * born_near_r6/r4 — 8 atoms per zmm with the q loop as a scalar
//    broadcast, like born_near_soa. 1/d2 is a vrcp14pd estimate refined by
//    two Newton iterations (~1 ulp), and the d2 > 0 guard is a k-mask. The
//    final partial block of 1..7 atoms runs masked instead of falling back
//    to scalar rows, so every atom goes through the same formula.
//  * epol_near_exact — four u-rows x 8 v-lanes per step. 1/sqrt(f2) is
//    vrsqrt14pd + two Newton iterations; exp is Cody-Waite reduction, a
//    degree-12 Taylor polynomial in Estrin form and vscalefpd (~2 ulp, no
//    vdivpd). The
//    exponent -r2/(4 R_u R_v) is r2 * (-1/(4 R_u)) * (1/R_v): the first
//    factor is one scalar divide per row, the second one vrcp14pd + Newton
//    per v-step shared by the four rows.
//  * epol_near_approx — the AVX2 kernel itself (the dispatcher borrows its
//    pointer), so the fast_rsqrt/fast_exp bit replication has one
//    implementation.
//
// Each u-row and each atom lane is computed independently of its block
// neighbours, horizontal sums run in a fixed tree order, and the vector/tail
// split depends only on the range bounds, so the kernels are pure functions
// of their (u, v) ranges — the property the canonical chunk fold relies on.
#include "core/kernels_simd.hpp"

#if defined(__AVX512F__) && defined(__AVX512DQ__) && defined(__AVX512VL__) && \
    defined(__FMA__)

// GCC 12's AVX-512 headers build every unmasked result from a self-
// initialized _mm512_undefined_pd(), which -Wall misreports as an
// uninitialized read (GCC bug 105593). The warning state is keyed by source
// location, so silencing it across the header covers every inlined use.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop

#include <cmath>

namespace gbpol {
namespace {

using std::uint32_t;

// ---------------------------------------------------------------- primitives

// First `n` lanes set; all eight when n >= 8.
inline __mmask8 lane_mask(uint32_t n) {
  return n >= 8 ? static_cast<__mmask8>(0xFF) : static_cast<__mmask8>((1u << n) - 1u);
}

// 1/x: vrcp14pd (relative error < 2^-14) + 2 Newton iterations
// y <- y(2 - x y): 2^-14 -> 2^-28 -> rounding-limited.
inline __m512d rcp_newton_pd(__m512d x) {
  __m512d y = _mm512_rcp14_pd(x);
  const __m512d two = _mm512_set1_pd(2.0);
  y = _mm512_mul_pd(y, _mm512_fnmadd_pd(x, y, two));
  y = _mm512_mul_pd(y, _mm512_fnmadd_pd(x, y, two));
  return y;
}

// 1/sqrt(x): vrsqrt14pd + 2 Newton iterations y <- y(1.5 - 0.5 x y^2).
inline __m512d rsqrt_newton_pd(__m512d x) {
  __m512d y = _mm512_rsqrt14_pd(x);
  const __m512d half_x = _mm512_mul_pd(x, _mm512_set1_pd(0.5));
  const __m512d three_half = _mm512_set1_pd(1.5);
  for (int i = 0; i < 2; ++i) {
    const __m512d yy = _mm512_mul_pd(y, y);
    y = _mm512_mul_pd(y, _mm512_fnmadd_pd(half_x, yy, three_half));
  }
  return y;
}

// exp(x) for x <= 709 (the E_pol operand is <= 0): Cody-Waite reduction
// x = n ln2 + r (|r| <= ln2/2), the degree-12 Taylor polynomial of e^r
// (truncation error < 2.5e-16 relative), and 2^n applied by vscalefpd,
// which also rounds correctly into the subnormal range. The lower clamp
// keeps n*c1 exact for any operand down to -inf; exp(-746) is already zero.
inline __m512d exp_pd(__m512d x) {
  const __m512d log2e = _mm512_set1_pd(1.4426950408889634073599);
  const __m512d c1 = _mm512_set1_pd(6.93145751953125e-1);
  const __m512d c2 = _mm512_set1_pd(1.42860682030941723212e-6);
  x = _mm512_max_pd(x, _mm512_set1_pd(-746.0));
  // n = nearest integer to x log2e: adding 1.5 * 2^52 rounds the fraction
  // away (exact while |x log2e| < 2^51).
  const __m512d shifter = _mm512_set1_pd(6755399441055744.0);
  const __m512d n = _mm512_sub_pd(_mm512_fmadd_pd(x, log2e, shifter), shifter);
  __m512d r = _mm512_fnmadd_pd(n, c1, x);
  r = _mm512_fnmadd_pd(n, c2, r);
  // Estrin evaluation: the same polynomial in a dependency tree four FMAs
  // deep instead of a 12-FMA Horner chain.
  const __m512d r2 = _mm512_mul_pd(r, r);
  const __m512d r4 = _mm512_mul_pd(r2, r2);
  const __m512d r8 = _mm512_mul_pd(r4, r4);
  const __m512d p01 = _mm512_fmadd_pd(r, _mm512_set1_pd(1.0), _mm512_set1_pd(1.0));
  const __m512d p23 = _mm512_fmadd_pd(r, _mm512_set1_pd(1.66666666666666666667e-1), _mm512_set1_pd(0.5));
  const __m512d p45 = _mm512_fmadd_pd(r, _mm512_set1_pd(8.33333333333333333333e-3), _mm512_set1_pd(4.16666666666666666667e-2));
  const __m512d p67 = _mm512_fmadd_pd(r, _mm512_set1_pd(1.98412698412698412698e-4), _mm512_set1_pd(1.38888888888888888889e-3));
  const __m512d p89 = _mm512_fmadd_pd(r, _mm512_set1_pd(2.75573192239858906526e-6), _mm512_set1_pd(2.48015873015873015873e-5));
  const __m512d pab = _mm512_fmadd_pd(r, _mm512_set1_pd(2.50521083854417187751e-8), _mm512_set1_pd(2.75573192239858906526e-7));
  const __m512d q0 = _mm512_fmadd_pd(r2, p23, p01);
  const __m512d q1 = _mm512_fmadd_pd(r2, p67, p45);
  const __m512d q2 = _mm512_fmadd_pd(r2, pab, p89);
  const __m512d s0 = _mm512_fmadd_pd(r4, q1, q0);
  const __m512d s1 = _mm512_fmadd_pd(r4, _mm512_set1_pd(2.08767569878680989792e-9), q2);
  const __m512d p = _mm512_fmadd_pd(r8, s1, s0);
  return _mm512_scalef_pd(p, n);
}

// Fixed-order horizontal sum: ((l0+l4) + (l2+l6)) + ((l1+l5) + (l3+l7)).
inline double hsum_ordered(__m512d v) {
  const __m256d h =
      _mm256_add_pd(_mm512_castpd512_pd256(v), _mm512_extractf64x4_pd(v, 1));
  const __m128d q = _mm_add_pd(_mm256_castpd256_pd128(h), _mm256_extractf128_pd(h, 1));
  return _mm_cvtsd_f64(_mm_add_sd(q, _mm_unpackhi_pd(q, q)));
}

// ------------------------------------------------------------- born kernels

// Lane k of each block is atom ai + k; every lane sums its row in q order.
// The partial final block loads its dead lanes as zero, clears them from the
// d2 > 0 mask, and leaves them out of the store.
template <int Power>
void born_near_avx512(const double* qx, const double* qy, const double* qz,
                      const double* wx, const double* wy, const double* wz,
                      uint32_t q_begin, uint32_t q_end, const double* ax,
                      const double* ay, const double* az, uint32_t a_begin,
                      uint32_t a_end, double* atom_s) {
  static_assert(Power == 4 || Power == 6);
  const __m512d zero = _mm512_setzero_pd();
  for (uint32_t ai = a_begin; ai < a_end; ai += 8) {
    const __mmask8 live = lane_mask(a_end - ai);
    const __m512d px = _mm512_maskz_loadu_pd(live, ax + ai);
    const __m512d py = _mm512_maskz_loadu_pd(live, ay + ai);
    const __m512d pz = _mm512_maskz_loadu_pd(live, az + ai);
    __m512d s = zero;
    for (uint32_t qi = q_begin; qi < q_end; ++qi) {
      const __m512d dx = _mm512_sub_pd(_mm512_set1_pd(qx[qi]), px);
      const __m512d dy = _mm512_sub_pd(_mm512_set1_pd(qy[qi]), py);
      const __m512d dz = _mm512_sub_pd(_mm512_set1_pd(qz[qi]), pz);
      const __m512d d2 =
          _mm512_fmadd_pd(dz, dz, _mm512_fmadd_pd(dy, dy, _mm512_mul_pd(dx, dx)));
      const __mmask8 pos = _mm512_mask_cmp_pd_mask(live, d2, zero, _CMP_GT_OQ);
      const __m512d inv2 = _mm512_maskz_mov_pd(pos, rcp_newton_pd(d2));
      const __m512d wdot = _mm512_fmadd_pd(
          _mm512_set1_pd(wz[qi]), dz,
          _mm512_fmadd_pd(_mm512_set1_pd(wy[qi]), dy,
                          _mm512_mul_pd(_mm512_set1_pd(wx[qi]), dx)));
      __m512d invp = _mm512_mul_pd(inv2, inv2);
      if constexpr (Power == 6) invp = _mm512_mul_pd(invp, inv2);
      s = _mm512_fmadd_pd(wdot, invp, s);
    }
    _mm512_mask_storeu_pd(atom_s + ai, live,
                          _mm512_add_pd(_mm512_maskz_loadu_pd(live, atom_s + ai), s));
  }
}

// ------------------------------------------------------------- epol kernels

// q_v / f_GB for one 8-lane v-step of one u-row:
// 1/sqrt(r2 + rr exp(r2 * (-1/(4 R_u)) * (1/R_v))).
[[gnu::always_inline]] inline __m512d epol_term8(__m512d vx, __m512d vy, __m512d vz,
                                                 __m512d vb, __m512d inv_rv,
                                                 __m512d px, __m512d py, __m512d pz,
                                                 __m512d ru, __m512d neg_quarter_inv_ru) {
  const __m512d dx = _mm512_sub_pd(vx, px);
  const __m512d dy = _mm512_sub_pd(vy, py);
  const __m512d dz = _mm512_sub_pd(vz, pz);
  const __m512d r2 =
      _mm512_fmadd_pd(dz, dz, _mm512_fmadd_pd(dy, dy, _mm512_mul_pd(dx, dx)));
  const __m512d rr = _mm512_mul_pd(ru, vb);
  const __m512d arg = _mm512_mul_pd(_mm512_mul_pd(r2, neg_quarter_inv_ru), inv_rv);
  return rsqrt_newton_pd(_mm512_fmadd_pd(rr, exp_pd(arg), r2));
}

// sum_k q_{u+k} sum_v q_v / f_GB(u+k, v) for R u-rows advancing together
// through [v_begin, v_end): every v-side load and 1/R_v is shared, and the R
// exp/rsqrt chains are independent, which is what keeps the core busy on
// short rows. The last v-step is masked: dead lanes load born as 1.0 (f2
// stays > 0) and charge as 0.0 (they add nothing). Rows fold into `sum` in
// ascending order.
template <int R>
[[gnu::always_inline]] inline double epol_rows(const double* x, const double* y,
                                               const double* z, const double* charge,
                                               const double* born, uint32_t ui,
                                               uint32_t v_begin, uint32_t v_end,
                                               double sum) {
  const __m512d one = _mm512_set1_pd(1.0);
  __m512d px[R], py[R], pz[R], ru[R], nq[R], acc[R];
  for (int k = 0; k < R; ++k) {
    px[k] = _mm512_set1_pd(x[ui + k]);
    py[k] = _mm512_set1_pd(y[ui + k]);
    pz[k] = _mm512_set1_pd(z[ui + k]);
    ru[k] = _mm512_set1_pd(born[ui + k]);
    nq[k] = _mm512_set1_pd(-0.25 / born[ui + k]);
    acc[k] = _mm512_setzero_pd();
  }
  for (uint32_t vi = v_begin; vi < v_end; vi += 8) {
    const __mmask8 live = lane_mask(v_end - vi);
    const __m512d vx = _mm512_maskz_loadu_pd(live, x + vi);
    const __m512d vy = _mm512_maskz_loadu_pd(live, y + vi);
    const __m512d vz = _mm512_maskz_loadu_pd(live, z + vi);
    const __m512d vb = _mm512_mask_loadu_pd(one, live, born + vi);
    const __m512d vq = _mm512_maskz_loadu_pd(live, charge + vi);
    const __m512d inv_rv = rcp_newton_pd(vb);
    for (int k = 0; k < R; ++k)
      acc[k] = _mm512_fmadd_pd(
          vq, epol_term8(vx, vy, vz, vb, inv_rv, px[k], py[k], pz[k], ru[k], nq[k]),
          acc[k]);
  }
  for (int k = 0; k < R; ++k) sum += charge[ui + k] * hsum_ordered(acc[k]);
  return sum;
}

// Mirrors epol_near_soa<false>: rows go in blocks of four, and the 1..3
// leftover rows run as one block of their own width. A row's sum does not
// depend on the block it lands in.
double epol_near_avx512(const double* x, const double* y, const double* z,
                        const double* charge, const double* born, uint32_t u_begin,
                        uint32_t u_end, uint32_t v_begin, uint32_t v_end) {
  double sum = 0.0;
  uint32_t ui = u_begin;
  for (; ui + 4 <= u_end; ui += 4)
    sum = epol_rows<4>(x, y, z, charge, born, ui, v_begin, v_end, sum);
  switch (u_end - ui) {
    case 3:
      return epol_rows<3>(x, y, z, charge, born, ui, v_begin, v_end, sum);
    case 2:
      return epol_rows<2>(x, y, z, charge, born, ui, v_begin, v_end, sum);
    case 1:
      return epol_rows<1>(x, y, z, charge, born, ui, v_begin, v_end, sum);
  }
  return sum;
}

const SimdKernelTable kAvx512Table = {
    &born_near_avx512<6>,
    &born_near_avx512<4>,
    &epol_near_avx512,
    nullptr,
};

}  // namespace

namespace detail {

// The approx slot stays empty here: the dispatcher fills it with the AVX2
// kernel (core/kernels_simd.cpp), so no code of this TU runs to build it.
const SimdKernelTable* avx512_kernel_table() { return &kAvx512Table; }

double avx512_rsqrt_max_rel_error(double lo, double hi, int samples) {
  double worst = 0.0;
  for (int i = 0; i < samples; ++i) {
    const double t = static_cast<double>(i) / (samples > 1 ? samples - 1 : 1);
    const double v = lo + (hi - lo) * t;
    if (v <= 0.0) continue;
    const double got = _mm512_cvtsd_f64(rsqrt_newton_pd(_mm512_set1_pd(v)));
    const double exact = 1.0 / std::sqrt(v);
    const double err = std::fabs(got - exact) / exact;
    if (err > worst) worst = err;
  }
  return worst;
}

double avx512_exp_max_rel_error(double lo, double hi, int samples) {
  double worst = 0.0;
  for (int i = 0; i < samples; ++i) {
    const double t = static_cast<double>(i) / (samples > 1 ? samples - 1 : 1);
    const double v = lo + (hi - lo) * t;
    const double exact = std::exp(v);
    if (exact == 0.0) continue;
    const double got = _mm512_cvtsd_f64(exp_pd(_mm512_set1_pd(v)));
    const double err = std::fabs(got - exact) / exact;
    if (err > worst) worst = err;
  }
  return worst;
}

// Throughput probes; the masked final step leaves dead lanes out of the sum.
double avx512_rsqrt_sum(const double* xs, std::size_t n) {
  const __m512d one = _mm512_set1_pd(1.0);
  __m512d acc = _mm512_setzero_pd();
  for (std::size_t i = 0; i < n; i += 8) {
    const __mmask8 live = lane_mask(static_cast<uint32_t>(n - i < 8 ? n - i : 8));
    acc = _mm512_mask_add_pd(acc, live, acc,
                             rsqrt_newton_pd(_mm512_mask_loadu_pd(one, live, xs + i)));
  }
  return hsum_ordered(acc);
}

double avx512_exp_sum(const double* xs, std::size_t n) {
  __m512d acc = _mm512_setzero_pd();
  for (std::size_t i = 0; i < n; i += 8) {
    const __mmask8 live = lane_mask(static_cast<uint32_t>(n - i < 8 ? n - i : 8));
    acc = _mm512_mask_add_pd(acc, live, acc,
                             exp_pd(_mm512_maskz_loadu_pd(live, xs + i)));
  }
  return hsum_ordered(acc);
}

}  // namespace detail
}  // namespace gbpol

#else  // no AVX-512 flags: stub so the dispatcher links everywhere.

namespace gbpol::detail {

const SimdKernelTable* avx512_kernel_table() { return nullptr; }
double avx512_rsqrt_max_rel_error(double, double, int) { return -1.0; }
double avx512_exp_max_rel_error(double, double, int) { return -1.0; }
double avx512_rsqrt_sum(const double*, std::size_t) { return 0.0; }
double avx512_exp_sum(const double*, std::size_t) { return 0.0; }

}  // namespace gbpol::detail

#endif
