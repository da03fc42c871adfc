#include "dsp/linalg_kernels.h"

#include <complex>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace backfi::dsp::detail {

namespace {

// One Gram entry the way the scalar reference computes it: acc +=
// std::conj(x[t - i]) * x[t - j] over t in [n_taps - 1, n). The explicit
// double form spells out libstdc++'s naive complex multiply (one rounding
// per product, separate add per axis), which is what the default-flags
// reference TU emits; with contraction disabled here the two match bitwise.
cplx gram_entry_scalar(const cplx* x, std::size_t n, std::size_t t0,
                       std::size_t i, std::size_t j) {
  double ar = 0.0, ai = 0.0;
  for (std::size_t t = t0; t < n; ++t) {
    const double car = x[t - i].real(), cai = -x[t - i].imag();
    const double br = x[t - j].real(), bi = x[t - j].imag();
    ar += car * br - cai * bi;
    ai += car * bi + cai * br;
  }
  return {ar, ai};
}

cplx rhs_entry_scalar(const cplx* x, std::size_t n, std::size_t t0,
                      const cplx* y, std::size_t i) {
  double ar = 0.0, ai = 0.0;
  for (std::size_t t = t0; t < n; ++t) {
    const double car = x[t - i].real(), cai = -x[t - i].imag();
    const double br = y[t].real(), bi = y[t].imag();
    ar += car * br - cai * bi;
    ai += car * bi + cai * br;
  }
  return {ar, ai};
}

void mirror_lower_triangle(cplx* gram, std::size_t n_taps) {
  for (std::size_t i = 0; i < n_taps; ++i)
    for (std::size_t j = i + 1; j < n_taps; ++j)
      gram[i * n_taps + j] = std::conj(gram[j * n_taps + i]);
}

#if defined(__AVX2__)

// Upper-triangle Gram row i, entries j in [i, n_taps), two entries per
// __m256d. The broadcast factor per time step is conj(x[t - i]) = (ar, -ai),
// applied with the fir_kernels addsub pattern: for each lane-complex b,
// addsub(b * ar, swap(b) * (-ai)) produces (ar*br + ai*bi, ar*bi - ai*br) —
// the exact products and add/sub sequence of std::conj(a) * b, one rounding
// per operation. Each entry's accumulator is a dedicated lane pair, added
// strictly in ascending t: bit-identical to gram_entry_scalar.
void gram_row_avx2(const cplx* x, std::size_t n, std::size_t t0,
                   std::size_t n_taps, std::size_t i, cplx* gram) {
  std::size_t j = i;
  for (; j + 2 <= n_taps; j += 2) {
    __m256d acc = _mm256_setzero_pd();
    for (std::size_t t = t0; t < n; ++t) {
      const __m256d hr = _mm256_set1_pd(x[t - i].real());
      const __m256d hi = _mm256_set1_pd(-x[t - i].imag());
      // Lanes 0..1 hold x[t - j - 1] (entry j + 1), lanes 2..3 x[t - j].
      const __m256d bv =
          _mm256_loadu_pd(reinterpret_cast<const double*>(x + (t - j - 1)));
      const __m256d bs = _mm256_permute_pd(bv, 0b0101);
      acc = _mm256_add_pd(
          acc, _mm256_addsub_pd(_mm256_mul_pd(bv, hr), _mm256_mul_pd(bs, hi)));
    }
    alignas(32) double lanes[4];
    _mm256_store_pd(lanes, acc);
    gram[j * n_taps + i] = cplx(lanes[2], lanes[3]);
    gram[(j + 1) * n_taps + i] = cplx(lanes[0], lanes[1]);
  }
  for (; j < n_taps; ++j)
    gram[j * n_taps + i] = gram_entry_scalar(x, n, t0, i, j);
}

#endif  // __AVX2__

}  // namespace

void fir_rhs_vectorized(const cplx* x, std::size_t n, const cplx* y,
                        std::size_t n_taps, cplx* rhs) {
  const std::size_t t0 = n_taps - 1;
  std::size_t i = 0;
#if defined(__AVX2__)
  // Two RHS entries per vector; the broadcast factor is y[t]. Each lane
  // accumulates v * conj(y) (v = x[t - i]); conj(v) * y is its exact
  // conjugate term by term (IEEE negation symmetry), so conjugating the
  // final accumulator reproduces the scalar sum bit for bit.
  for (; i + 2 <= n_taps; i += 2) {
    __m256d acc = _mm256_setzero_pd();
    for (std::size_t t = t0; t < n; ++t) {
      const __m256d yr = _mm256_set1_pd(y[t].real());
      const __m256d nyi = _mm256_set1_pd(-y[t].imag());
      // Lanes 0..1 hold x[t - i - 1] (entry i + 1), lanes 2..3 x[t - i].
      const __m256d vv =
          _mm256_loadu_pd(reinterpret_cast<const double*>(x + (t - i - 1)));
      const __m256d vs = _mm256_permute_pd(vv, 0b0101);
      acc = _mm256_add_pd(
          acc, _mm256_addsub_pd(_mm256_mul_pd(vv, yr), _mm256_mul_pd(vs, nyi)));
    }
    alignas(32) double lanes[4];
    _mm256_store_pd(lanes, acc);
    rhs[i] = cplx(lanes[2], -lanes[3]);
    rhs[i + 1] = cplx(lanes[0], -lanes[1]);
  }
#endif
  for (; i < n_taps; ++i) rhs[i] = rhs_entry_scalar(x, n, t0, y, i);
}

void fir_normal_equations_vectorized(const cplx* x, std::size_t n,
                                     const cplx* y, std::size_t n_taps,
                                     cplx* gram, cplx* rhs) {
  const std::size_t t0 = n_taps - 1;
  for (std::size_t i = 0; i < n_taps; ++i) {
#if defined(__AVX2__)
    gram_row_avx2(x, n, t0, n_taps, i, gram);
#else
    for (std::size_t j = i; j < n_taps; ++j)
      gram[j * n_taps + i] = gram_entry_scalar(x, n, t0, i, j);
#endif
  }
  mirror_lower_triangle(gram, n_taps);
  fir_rhs_vectorized(x, n, y, n_taps, rhs);
}

bool linalg_kernels_avx2() {
#if defined(__AVX2__)
  return true;
#else
  return false;
#endif
}

}  // namespace backfi::dsp::detail
