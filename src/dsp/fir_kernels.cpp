#include "dsp/fir_kernels.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace backfi::dsp::detail {

namespace {

#if defined(__AVX2__)

// Gather-form windowed convolution, vectorized two complex outputs per
// __m256d, four outputs per iteration on two accumulator chains. The k loop
// runs descending so each output accumulates contributions in ascending
// input order — the same addition sequence as convolve's scatter loop.
// _mm256_addsub_pd(xv*hr, xs*hi) is the textbook complex multiply with one
// rounding per operation (no FMA), so every product and every partial sum
// matches the scalar path to the bit.
//
// convolve additionally skips exact-zero input samples; dropping the
// skip is still bit-identical: an accumulator that starts at +0.0 can never
// become -0.0 under round-to-nearest (x + y is -0 only when both operands
// are -0, and +0 + (+/-0) is +0), and adding the +/-0 products a zero input
// contributes leaves every finite accumulator value unchanged.
// When Energy is set, the kernel also adds sum |out[j]|^2 across the window
// to the running energy it is handed, in ascending output order with one
// norm rounding per element (t = re*re + im*im, then eacc += t) — exactly
// dsp::energy's sequence over the same values, so the fused accumulation is
// bit-identical to a separate post-pass, and a capture cancelled in several
// consecutive windows with the energy carried from one to the next sums in
// the same order as one whole-capture call. The block bodies extract the
// norms straight from the output registers (square, in-lane horizontal add,
// scalar extract) rather than re-reading the stores — an 8-byte reload of a
// 32-byte store would stall on failed store-forwarding every element — and
// the short scalar add chain overlaps with the next block's independent
// convolution work.
// The Energy form also raises the running peak axis magnitude
// max(|re|, |im|) over the window, NaN components ignored:
// _mm256_max_pd(|v|, peak) is `|v| > peak ? |v| : peak`, which keeps
// `peak` for a NaN lane, and the maximum of non-NaN values is exact in any
// order (|v| is never -0), so the lane-wise running peaks reduce to the
// scalar loop's value, the carried-in peak included.
template <bool Subtract, bool Energy>
double gather_avx2(const cplx* x, std::size_t nx, const cplx* h, std::size_t nh,
                   const cplx* rx, cplx* outp, std::size_t o0, std::size_t o1,
                   double energy, double* max_abs) {
  double eacc = energy;
  double peak = Energy ? *max_abs : 0.0;
  [[maybe_unused]] const __m256d sign = _mm256_set1_pd(-0.0);
  [[maybe_unused]] __m256d peakv = _mm256_setzero_pd();
  // Norms of the two complex outputs in `v`, accumulated in lane order:
  // v*v gives [re0^2, im0^2, re1^2, im1^2]; hadd pairs them to
  // [n0, n0, n1, n1] with the single rounded add of the scalar norm.
  [[maybe_unused]] auto accumulate_pair = [&eacc, &peakv, sign](__m256d v) {
    const __m256d sq = _mm256_mul_pd(v, v);
    const __m256d n = _mm256_hadd_pd(sq, sq);
    eacc += _mm_cvtsd_f64(_mm256_castpd256_pd128(n));
    eacc += _mm_cvtsd_f64(_mm256_extractf128_pd(n, 1));
    peakv = _mm256_max_pd(_mm256_andnot_pd(sign, v), peakv);
  };
  auto scalar_one = [&](std::size_t j) {
    const std::size_t k_hi = std::min(j, nh - 1);
    const std::size_t k_lo = j >= nx ? j - (nx - 1) : 0;
    double accr = 0.0, acci = 0.0;
    for (std::size_t k = k_hi + 1; k-- > k_lo;) {
      const double xr = x[j - k].real(), xi = x[j - k].imag();
      const double hr = h[k].real(), hi = h[k].imag();
      accr += xr * hr - xi * hi;
      acci += xr * hi + xi * hr;
    }
    double vr, vi;
    if constexpr (Subtract) {
      vr = rx[j].real() - accr;
      vi = rx[j].imag() - acci;
    } else {
      vr = accr;
      vi = acci;
    }
    outp[j - o0] = cplx(vr, vi);
    if constexpr (Energy) {
      eacc += vr * vr + vi * vi;
      peak = std::max(peak, std::fabs(vr));
      peak = std::max(peak, std::fabs(vi));
    }
  };
  std::size_t j = o0;
  // Left edge: outputs whose k range is clipped by the start of x.
  for (; j < std::min(o1, nh - 1); ++j) scalar_one(j);
  const std::size_t main_end = (o1 <= nx) ? o1 : nx;
  // Eight outputs per iteration on four independent accumulator chains:
  // each output still owns one lane pair accumulated over the same
  // descending-k sequence, so widening the block changes nothing about any
  // individual output's addition order — it only gives the port-5 shuffle /
  // add chain more independent work to overlap with the loads.
  for (; j + 8 <= main_end; j += 8) {
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    __m256d acc2 = _mm256_setzero_pd();
    __m256d acc3 = _mm256_setzero_pd();
    const double* xb = reinterpret_cast<const double*>(x + j);
    for (std::size_t k = nh; k-- > 0;) {
      const __m256d hr = _mm256_set1_pd(h[k].real());
      const __m256d hi = _mm256_set1_pd(h[k].imag());
      const __m256d xv0 = _mm256_loadu_pd(xb - 2 * k);
      const __m256d xv1 = _mm256_loadu_pd(xb - 2 * k + 4);
      const __m256d xv2 = _mm256_loadu_pd(xb - 2 * k + 8);
      const __m256d xv3 = _mm256_loadu_pd(xb - 2 * k + 12);
      acc0 = _mm256_add_pd(
          acc0, _mm256_addsub_pd(_mm256_mul_pd(xv0, hr),
                                 _mm256_mul_pd(_mm256_permute_pd(xv0, 0b0101), hi)));
      acc1 = _mm256_add_pd(
          acc1, _mm256_addsub_pd(_mm256_mul_pd(xv1, hr),
                                 _mm256_mul_pd(_mm256_permute_pd(xv1, 0b0101), hi)));
      acc2 = _mm256_add_pd(
          acc2, _mm256_addsub_pd(_mm256_mul_pd(xv2, hr),
                                 _mm256_mul_pd(_mm256_permute_pd(xv2, 0b0101), hi)));
      acc3 = _mm256_add_pd(
          acc3, _mm256_addsub_pd(_mm256_mul_pd(xv3, hr),
                                 _mm256_mul_pd(_mm256_permute_pd(xv3, 0b0101), hi)));
    }
    if constexpr (Subtract) {
      const double* rb = reinterpret_cast<const double*>(rx + j);
      acc0 = _mm256_sub_pd(_mm256_loadu_pd(rb), acc0);
      acc1 = _mm256_sub_pd(_mm256_loadu_pd(rb + 4), acc1);
      acc2 = _mm256_sub_pd(_mm256_loadu_pd(rb + 8), acc2);
      acc3 = _mm256_sub_pd(_mm256_loadu_pd(rb + 12), acc3);
    }
    double* ob = reinterpret_cast<double*>(outp + (j - o0));
    _mm256_storeu_pd(ob, acc0);
    _mm256_storeu_pd(ob + 4, acc1);
    _mm256_storeu_pd(ob + 8, acc2);
    _mm256_storeu_pd(ob + 12, acc3);
    if constexpr (Energy) {
      accumulate_pair(acc0);
      accumulate_pair(acc1);
      accumulate_pair(acc2);
      accumulate_pair(acc3);
    }
  }
  for (; j + 4 <= main_end; j += 4) {
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    const double* xb = reinterpret_cast<const double*>(x + j);
    for (std::size_t k = nh; k-- > 0;) {
      const __m256d hr = _mm256_set1_pd(h[k].real());
      const __m256d hi = _mm256_set1_pd(h[k].imag());
      const __m256d xv0 = _mm256_loadu_pd(xb - 2 * k);
      const __m256d xv1 = _mm256_loadu_pd(xb - 2 * k + 4);
      const __m256d xs0 = _mm256_permute_pd(xv0, 0b0101);
      const __m256d xs1 = _mm256_permute_pd(xv1, 0b0101);
      acc0 = _mm256_add_pd(
          acc0, _mm256_addsub_pd(_mm256_mul_pd(xv0, hr), _mm256_mul_pd(xs0, hi)));
      acc1 = _mm256_add_pd(
          acc1, _mm256_addsub_pd(_mm256_mul_pd(xv1, hr), _mm256_mul_pd(xs1, hi)));
    }
    if constexpr (Subtract) {
      const double* rb = reinterpret_cast<const double*>(rx + j);
      acc0 = _mm256_sub_pd(_mm256_loadu_pd(rb), acc0);
      acc1 = _mm256_sub_pd(_mm256_loadu_pd(rb + 4), acc1);
    }
    double* ob = reinterpret_cast<double*>(outp + (j - o0));
    _mm256_storeu_pd(ob, acc0);
    _mm256_storeu_pd(ob + 4, acc1);
    if constexpr (Energy) {
      accumulate_pair(acc0);
      accumulate_pair(acc1);
    }
  }
  for (; j < o1; ++j) scalar_one(j);
  if constexpr (Energy) {
    alignas(32) double lanes[4];
    _mm256_store_pd(lanes, peakv);
    for (const double lane : lanes) peak = std::max(peak, lane);
    *max_abs = peak;
  }
  return eacc;
}

#else  // !__AVX2__

// Portable fallback: convolve's scatter loop clipped to the output
// window, preserving the exact-zero input skip. Per-output addition order
// (ascending i) is identical to the unclipped loop by construction.
void scatter_range(const cplx* x, std::size_t nx, const cplx* h, std::size_t nh,
                   cplx* out, std::size_t o0, std::size_t o1) {
  std::fill(out, out + (o1 - o0), cplx{0.0, 0.0});
  const std::size_t i_begin = o0 >= nh - 1 ? o0 - (nh - 1) : 0;
  const std::size_t i_end = std::min(nx, o1);
  for (std::size_t i = i_begin; i < i_end; ++i) {
    const cplx xi = x[i];
    if (xi == cplx{0.0, 0.0}) continue;
    const std::size_t k_lo = i < o0 ? o0 - i : 0;
    const std::size_t k_hi = std::min(nh, o1 - i);
    for (std::size_t k = k_lo; k < k_hi; ++k) out[i + k - o0] += xi * h[k];
  }
}

#endif  // __AVX2__

}  // namespace

void convolve_same_gather(const cplx* x, std::size_t nx, const cplx* h,
                          std::size_t nh, cplx* out, std::size_t o0,
                          std::size_t o1) {
  assert(nh >= 1 && o1 <= nx);
  if (o0 >= o1) return;
#if defined(__AVX2__)
  gather_avx2<false, false>(x, nx, h, nh, nullptr, out, o0, o1, 0.0, nullptr);
#else
  scatter_range(x, nx, h, nh, out, o0, o1);
#endif
}

void convolve_same_gather_subtract(const cplx* x, std::size_t nx,
                                   const cplx* h, std::size_t nh,
                                   const cplx* rx, cplx* out, std::size_t o0,
                                   std::size_t o1) {
  assert(nh >= 1 && o1 <= nx);
  if (o0 >= o1) return;
#if defined(__AVX2__)
  gather_avx2<true, false>(x, nx, h, nh, rx, out, o0, o1, 0.0, nullptr);
#else
  scatter_range(x, nx, h, nh, out, o0, o1);
  for (std::size_t j = o0; j < o1; ++j) out[j - o0] = rx[j] - out[j - o0];
#endif
}

double convolve_same_gather_subtract_energy(const cplx* x, std::size_t nx,
                                            const cplx* h, std::size_t nh,
                                            const cplx* rx, cplx* out,
                                            std::size_t o0, std::size_t o1,
                                            double energy, double& max_abs) {
  assert(nh >= 1 && o1 <= nx);
  if (o0 >= o1) return energy;
#if defined(__AVX2__)
  return gather_avx2<true, true>(x, nx, h, nh, rx, out, o0, o1, energy,
                                 &max_abs);
#else
  scatter_range(x, nx, h, nh, out, o0, o1);
  double eacc = energy;
  double peak = max_abs;
  for (std::size_t j = o0; j < o1; ++j) {
    const cplx v = rx[j] - out[j - o0];
    out[j - o0] = v;
    eacc += v.real() * v.real() + v.imag() * v.imag();
    peak = std::max(peak, std::fabs(v.real()));
    peak = std::max(peak, std::fabs(v.imag()));
  }
  max_abs = peak;
  return eacc;
#endif
}

bool fir_kernels_avx2() {
#if defined(__AVX2__)
  return true;
#else
  return false;
#endif
}

}  // namespace backfi::dsp::detail
