#include "phy/demod_kernels.h"

#include <algorithm>
#include <array>
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

// The scalar max-log reference for one symbol (constellation::demap_llr's
// arithmetic on stack minima): ascending point index, one std::min per
// (point, bit) into the slot the label bit selects. Also the tail path of
// the vector demapper and the whole path for wide constellations.
void demap_one(const cplx* points, const std::uint32_t* labels,
               std::size_t n_points, std::size_t bits_per_symbol, cplx y,
               double inv_var, double* w) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::array<double, 8> min0;
  std::array<double, 8> min1;
  min0.fill(kInf);
  min1.fill(kInf);
  for (std::size_t i = 0; i < n_points; ++i) {
    const double d = std::norm(y - points[i]);
    for (std::size_t b = 0; b < bits_per_symbol; ++b) {
      const bool bit = ((labels[i] >> (bits_per_symbol - 1 - b)) & 1u) != 0;
      auto& slot = bit ? min1[b] : min0[b];
      slot = std::min(slot, d);
    }
  }
  for (std::size_t b = 0; b < bits_per_symbol; ++b)
    w[b] = (min1[b] - min0[b]) * inv_var;  // positive favours bit 0
}

#if defined(__AVX2__)

constexpr std::size_t kMaxVectorPoints = 64;
constexpr std::size_t kMaxVectorBits = 6;

// Four symbols per iteration, one per lane. Lane l computes symbol s + l's
// distance to point i as (yr - pr)^2 + (yi - pi)^2 with one rounding per
// operation — std::norm(y - p) to the bit — and folds it into each bit's
// minimum with _mm256_min_pd(d, m), which is `d < m ? d : m`, the very
// expression std::min(slot, d) evaluates. Each (symbol, bit, label value)
// minimum visits the same points in the same ascending order as the
// reference, so every minimum — and therefore every LLR — is the
// reference's to the bit, NaN and infinities included: min is not
// reordered anywhere, so no input needs a scalar fallback.
void demap_avx2(const cplx* points, const std::uint32_t* labels,
                std::size_t n_points, std::size_t bits_per_symbol,
                const cplx* symbols, std::size_t n_symbols, double inv_var,
                double* out) {
  // Per bit, the ascending indices of the points whose label bit is set
  // (ones) and clear (zeros): exactly the points at which the reference
  // updates min1[b] and min0[b], in its update order.
  std::uint8_t ones[kMaxVectorBits][kMaxVectorPoints];
  std::uint8_t zeros[kMaxVectorBits][kMaxVectorPoints];
  std::size_t n_ones[kMaxVectorBits] = {};
  std::size_t n_zeros[kMaxVectorBits] = {};
  for (std::size_t i = 0; i < n_points; ++i) {
    for (std::size_t b = 0; b < bits_per_symbol; ++b) {
      if ((labels[i] >> (bits_per_symbol - 1 - b)) & 1u)
        ones[b][n_ones[b]++] = static_cast<std::uint8_t>(i);
      else
        zeros[b][n_zeros[b]++] = static_cast<std::uint8_t>(i);
    }
  }
  const double* pb = reinterpret_cast<const double*>(points);
  const __m256d inf = _mm256_set1_pd(std::numeric_limits<double>::infinity());
  const __m256d inv = _mm256_set1_pd(inv_var);
  __m256d dist[kMaxVectorPoints];
  alignas(32) double llr[kMaxVectorBits][4];
  std::size_t s = 0;
  for (; s + 4 <= n_symbols; s += 4) {
    const double* yb = reinterpret_cast<const double*>(symbols + s);
    const __m256d a = _mm256_loadu_pd(yb);      // [y0r y0i y1r y1i]
    const __m256d c = _mm256_loadu_pd(yb + 4);  // [y2r y2i y3r y3i]
    const __m256d yr =
        _mm256_permute4x64_pd(_mm256_unpacklo_pd(a, c), 0b11011000);
    const __m256d yi =
        _mm256_permute4x64_pd(_mm256_unpackhi_pd(a, c), 0b11011000);
    for (std::size_t i = 0; i < n_points; ++i) {
      const __m256d dr = _mm256_sub_pd(yr, _mm256_broadcast_sd(pb + 2 * i));
      const __m256d di =
          _mm256_sub_pd(yi, _mm256_broadcast_sd(pb + 2 * i + 1));
      dist[i] = _mm256_add_pd(_mm256_mul_pd(dr, dr), _mm256_mul_pd(di, di));
    }
    for (std::size_t b = 0; b < bits_per_symbol; ++b) {
      __m256d m1 = inf;
      __m256d m0 = inf;
      for (std::size_t k = 0; k < n_ones[b]; ++k)
        m1 = _mm256_min_pd(dist[ones[b][k]], m1);
      for (std::size_t k = 0; k < n_zeros[b]; ++k)
        m0 = _mm256_min_pd(dist[zeros[b][k]], m0);
      _mm256_store_pd(llr[b], _mm256_mul_pd(_mm256_sub_pd(m1, m0), inv));
    }
    double* w = out + s * bits_per_symbol;
    for (std::size_t lane = 0; lane < 4; ++lane, w += bits_per_symbol)
      for (std::size_t b = 0; b < bits_per_symbol; ++b) w[b] = llr[b][lane];
  }
  for (; s < n_symbols; ++s)
    demap_one(points, labels, n_points, bits_per_symbol, symbols[s], inv_var,
              out + s * bits_per_symbol);
}

#endif  // __AVX2__

}  // namespace

void demap_llr_max_log(const cplx* points, const std::uint32_t* labels,
                       std::size_t n_points, std::size_t bits_per_symbol,
                       const cplx* symbols, std::size_t n_symbols,
                       double inv_var, double* out) {
#if defined(__AVX2__)
  if (n_points <= kMaxVectorPoints && bits_per_symbol <= kMaxVectorBits) {
    demap_avx2(points, labels, n_points, bits_per_symbol, symbols, n_symbols,
               inv_var, out);
    return;
  }
#endif
  for (std::size_t s = 0; s < n_symbols; ++s)
    demap_one(points, labels, n_points, bits_per_symbol, symbols[s], inv_var,
              out + s * bits_per_symbol);
}

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
