#include "phy/demod_kernels.h"

#include <limits>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace backfi::phy::detail {

namespace {

// The scalar reference scan: ascending index, strict `<`, so the first
// point at the minimum distance wins. Also the tail/odd-size path for the
// vector kernel.
std::size_t nearest_scalar(const cplx* points, std::size_t n, cplx y) {
  std::size_t best = 0;
  double best_dist = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    const double d = std::norm(y - points[i]);
    if (d < best_dist) {
      best_dist = d;
      best = i;
    }
  }
  return best;
}

}  // namespace

std::size_t nearest_point(const cplx* points, std::size_t n, cplx y) {
#if defined(__AVX2__)
  // Four points per iteration: each lane tracks the best distance (and its
  // index, exactly representable as a double) among the indices congruent
  // to that lane. Groups are scanned ascending and a lane is replaced only
  // on strict improvement, so each lane holds the *earliest* index at its
  // minimum; the final scalar reduce then picks the smallest distance and,
  // on exact ties, the smallest index — the scalar scan's first-wins
  // result. The per-lane distance is (yr-pr)^2 + (yi-pi)^2 with one
  // rounding per operation, bit-identical to the scalar std::norm(y - p).
  if (n >= 8 && n % 4 == 0) {
    const __m256d yr = _mm256_set1_pd(y.real());
    const __m256d yi = _mm256_set1_pd(y.imag());
    __m256d best_d = _mm256_set1_pd(std::numeric_limits<double>::infinity());
    __m256d best_i = _mm256_setr_pd(0.0, 1.0, 2.0, 3.0);
    __m256d idx = best_i;
    const __m256d four = _mm256_set1_pd(4.0);
    const double* pb = reinterpret_cast<const double*>(points);
    for (std::size_t i = 0; i < n; i += 4, pb += 8) {
      const __m256d a = _mm256_loadu_pd(pb);      // [p0r p0i p1r p1i]
      const __m256d b = _mm256_loadu_pd(pb + 4);  // [p2r p2i p3r p3i]
      const __m256d pr =
          _mm256_permute4x64_pd(_mm256_unpacklo_pd(a, b), 0b11011000);
      const __m256d pi =
          _mm256_permute4x64_pd(_mm256_unpackhi_pd(a, b), 0b11011000);
      const __m256d dr = _mm256_sub_pd(yr, pr);
      const __m256d di = _mm256_sub_pd(yi, pi);
      const __m256d d =
          _mm256_add_pd(_mm256_mul_pd(dr, dr), _mm256_mul_pd(di, di));
      const __m256d lt = _mm256_cmp_pd(d, best_d, _CMP_LT_OQ);
      best_d = _mm256_blendv_pd(best_d, d, lt);
      best_i = _mm256_blendv_pd(best_i, idx, lt);
      idx = _mm256_add_pd(idx, four);
    }
    alignas(32) double dist[4];
    alignas(32) double index[4];
    _mm256_store_pd(dist, best_d);
    _mm256_store_pd(index, best_i);
    double bd = dist[0];
    double bi = index[0];
    for (int lane = 1; lane < 4; ++lane) {
      if (dist[lane] < bd || (dist[lane] == bd && index[lane] < bi)) {
        bd = dist[lane];
        bi = index[lane];
      }
    }
    return static_cast<std::size_t>(bi);
  }
#endif
  return nearest_scalar(points, n, y);
}

bool demod_kernels_avx2() {
#if defined(__AVX2__)
  return true;
#else
  return false;
#endif
}

}  // namespace backfi::phy::detail
