#include "reader/decoder_kernels.h"

#include <algorithm>
#include <cmath>
#include <limits>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace backfi::reader::detail {

namespace {

#if !defined(__AVX2__)

bool all_finite_scalar(const cplx* v, std::size_t begin, std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) {
    if (!std::isfinite(v[i].real()) || !std::isfinite(v[i].imag()))
      return false;
  }
  return true;
}

#else  // __AVX2__

// A double is non-finite exactly when |v| is not less than +inf (inf
// compares equal, NaN compares unordered), so _CMP_NLT_UQ on the
// sign-cleared lanes flags inf and NaN in one compare. The scan ORs the
// flags across a block and only then checks the mask — the early exit of
// the scalar loop only changes how fast a non-finite capture is rejected,
// not the verdict.
bool all_finite_range(const double* p, std::size_t n) {
  const __m256d abs_mask = _mm256_castsi256_pd(_mm256_set1_epi64x(
      0x7fffffffffffffffLL));
  const __m256d inf = _mm256_set1_pd(std::numeric_limits<double>::infinity());
  std::size_t i = 0;
  constexpr std::size_t kBlock = 1024;
  const std::size_t vec_end = n & ~std::size_t{3};
  while (i < vec_end) {
    const std::size_t block_end = std::min(vec_end, i + kBlock);
    __m256d bad = _mm256_setzero_pd();
    for (; i < block_end; i += 4) {
      const __m256d v = _mm256_and_pd(_mm256_loadu_pd(p + i), abs_mask);
      bad = _mm256_or_pd(bad, _mm256_cmp_pd(v, inf, _CMP_NLT_UQ));
    }
    if (_mm256_movemask_pd(bad) != 0) return false;
  }
  for (; i < n; ++i) {
    if (!std::isfinite(p[i])) return false;
  }
  return true;
}

#endif  // __AVX2__

}  // namespace

bool all_finite_window(std::span<const cplx> x, std::span<const cplx> y,
                       std::size_t begin, std::size_t end) {
  if (begin >= end) return true;
#if defined(__AVX2__)
  const std::size_t n = 2 * (end - begin);
  return all_finite_range(
             reinterpret_cast<const double*>(x.data() + begin), n) &&
         all_finite_range(
             reinterpret_cast<const double*>(y.data() + begin), n);
#else
  return all_finite_scalar(x.data(), begin, end) &&
         all_finite_scalar(y.data(), begin, end);
#endif
}

bool decoder_kernels_avx2() {
#if defined(__AVX2__)
  return true;
#else
  return false;
#endif
}

}  // namespace backfi::reader::detail
