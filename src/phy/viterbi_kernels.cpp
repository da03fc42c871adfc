#include "phy/viterbi_kernels.h"

#include <array>
#include <limits>
#include <utility>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace backfi::phy::detail {

namespace {

// Mirror of convolutional.cpp's trellis constants and parity recipe; the
// ConvolutionalTest reference-Viterbi tests pin the decoder built on this
// kernel against an independent scatter-form decoder.
constexpr std::uint32_t kG0 = 0b1011011;  // 133 octal
constexpr std::uint32_t kG1 = 0b1111001;  // 171 octal
constexpr int kMemory = 6;
constexpr int kStates = 1 << kMemory;

constexpr std::uint8_t parity(std::uint32_t v) {
  v ^= v >> 16;
  v ^= v >> 8;
  v ^= v >> 4;
  v ^= v >> 2;
  v ^= v >> 1;
  return static_cast<std::uint8_t>(v & 1u);
}

// Coded output bits for predecessor state p taken with input bit b. The
// branch metric is then (out0 ? -s0 : s0) + (out1 ? -s1 : s1).
constexpr std::uint8_t out_bit(std::uint32_t generator, int p, int b) {
  const std::uint32_t reg = (static_cast<std::uint32_t>(b) << kMemory) |
                            static_cast<std::uint32_t>(p);
  return parity(reg & generator);
}

#if defined(__AVX2__)

// Per-group constants for the vector step. States are processed four at a
// time in ascending order; group g covers next states 4g..4g+3, whose input
// bit is b = (4g) >> 5 and whose predecessor pairs are the eight contiguous
// metrics 8(g&7)..8(g&7)+7 (even lanes = first predecessor, odd = second).
// The sign tables turn the shared (s0, s1) pair into each lane's branch
// metric with one exact +-1 multiply per operand and the same single
// rounded add as the scalar bm[] table.
struct acs_tables {
  alignas(32) double se0[16][4];  // sign of s0, even (first) predecessor
  alignas(32) double se1[16][4];  // sign of s1, even predecessor
  alignas(32) double so0[16][4];  // sign of s0, odd (second) predecessor
  alignas(32) double so1[16][4];  // sign of s1, odd predecessor
};

acs_tables make_acs_tables() {
  acs_tables t{};
  for (int g = 0; g < 16; ++g) {
    for (int lane = 0; lane < 4; ++lane) {
      const int ns = 4 * g + lane;
      const int b = ns >> (kMemory - 1);
      const int p0 = (ns & (kStates / 2 - 1)) * 2;
      t.se0[g][lane] = out_bit(kG0, p0, b) ? -1.0 : 1.0;
      t.se1[g][lane] = out_bit(kG1, p0, b) ? -1.0 : 1.0;
      t.so0[g][lane] = out_bit(kG0, p0 + 1, b) ? -1.0 : 1.0;
      t.so1[g][lane] = out_bit(kG1, p0 + 1, b) ? -1.0 : 1.0;
    }
  }
  return t;
}

#else  // !__AVX2__

// Branch-metric selector per (predecessor, input): the two coded bits packed
// as an index into the four +-s0 +-s1 sums (same table the scalar loop in
// convolutional.cpp used to build per call).
struct bm_tables {
  std::uint8_t index[kStates][2];
};

bm_tables make_bm_tables() {
  bm_tables t{};
  for (int p = 0; p < kStates; ++p)
    for (int b = 0; b < 2; ++b)
      t.index[p][b] = static_cast<std::uint8_t>((out_bit(kG0, p, b) << 1) |
                                                out_bit(kG1, p, b));
  return t;
}

#endif  // __AVX2__

#if defined(__AVX2__)
using step_tables = acs_tables;
#else
using step_tables = bm_tables;
#endif

// One trellis step over all 64 states: reads `metric`, writes
// `next_metric`, returns the step's decision word.
std::uint64_t acs_step(const step_tables& t, const double* metric, double s0,
                       double s1, int max_input, double* next_metric) {
  std::uint64_t decisions = 0;
#if defined(__AVX2__)
  const __m256d s0v = _mm256_set1_pd(s0);
  const __m256d s1v = _mm256_set1_pd(s1);
  // Group g and group g + 8 (input bits 0 and 1) read the same eight
  // predecessor metrics, so each deinterleave serves both.
  const auto select = [&](int g, __m256d even, __m256d odd) {
    const __m256d bme =
        _mm256_add_pd(_mm256_mul_pd(_mm256_load_pd(t.se0[g]), s0v),
                      _mm256_mul_pd(_mm256_load_pd(t.se1[g]), s1v));
    const __m256d bmo =
        _mm256_add_pd(_mm256_mul_pd(_mm256_load_pd(t.so0[g]), s0v),
                      _mm256_mul_pd(_mm256_load_pd(t.so1[g]), s1v));
    const __m256d c0 = _mm256_add_pd(even, bme);
    const __m256d c1 = _mm256_add_pd(odd, bmo);
    // Ordered strict greater-than: picks the odd predecessor only on strict
    // improvement (ties and unordered NaN compares keep the even one),
    // matching the scalar `c1 > c0`.
    const __m256d gt = _mm256_cmp_pd(c1, c0, _CMP_GT_OQ);
    _mm256_storeu_pd(next_metric + 4 * g, _mm256_blendv_pd(c0, c1, gt));
    decisions |= static_cast<std::uint64_t>(_mm256_movemask_pd(gt)) << (4 * g);
  };
  for (int g = 0; g < 8; ++g) {
    const double* mp = metric + 8 * g;
    const __m256d a = _mm256_loadu_pd(mp);
    const __m256d b = _mm256_loadu_pd(mp + 4);
    // Deinterleave the eight predecessor metrics into even/odd lanes in
    // ascending state order.
    const __m256d even =
        _mm256_permute4x64_pd(_mm256_unpacklo_pd(a, b), 0b11011000);
    const __m256d odd =
        _mm256_permute4x64_pd(_mm256_unpackhi_pd(a, b), 0b11011000);
    select(g, even, odd);
    if (max_input == 2) select(g + 8, even, odd);
  }
  if (max_input != 2) {
    const __m256d ninf =
        _mm256_set1_pd(-std::numeric_limits<double>::infinity());
    for (int ns = kStates / 2; ns < kStates; ns += 4)
      _mm256_storeu_pd(next_metric + ns, ninf);
  }
#else
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  // bm[o0 << 1 | o1] = (o0 ? -s0 : s0) + (o1 ? -s1 : s1), same FP ops and
  // order as computing each branch individually.
  const double bm[4] = {s0 + s1, s0 + (-s1), (-s0) + s1, (-s0) + (-s1)};
  for (int ns = 0; ns < kStates; ++ns) {
    const int b = ns >> (kMemory - 1);
    if (b >= max_input) {
      next_metric[ns] = kNegInf;
      continue;
    }
    const int p0 = (ns & (kStates / 2 - 1)) * 2;
    const double c0 = metric[p0] + bm[t.index[p0][b]];
    const double c1 = metric[p0 + 1] + bm[t.index[p0 + 1][b]];
    const bool take1 = c1 > c0;
    next_metric[ns] = take1 ? c1 : c0;
    decisions |= static_cast<std::uint64_t>(take1) << ns;
  }
#endif
  return decisions;
}

}  // namespace

double viterbi_trellis(const double* soft, std::size_t n_steps,
                       std::size_t n_info, std::uint64_t* decisions) {
#if defined(__AVX2__)
  static const step_tables t = make_acs_tables();
#else
  static const step_tables t = make_bm_tables();
#endif
  std::array<double, kStates> rows[2];
  rows[0].fill(-std::numeric_limits<double>::infinity());
  rows[0][0] = 0.0;
  double* metric = rows[0].data();
  double* next_metric = rows[1].data();
  for (std::size_t step = 0; step < n_steps; ++step) {
    const int max_input = (step < n_info) ? 2 : 1;  // tail forces zeros
    decisions[step] = acs_step(t, metric, soft[2 * step], soft[2 * step + 1],
                               max_input, next_metric);
    std::swap(metric, next_metric);
  }
  return metric[0];
}

bool viterbi_kernels_avx2() {
#if defined(__AVX2__)
  return true;
#else
  return false;
#endif
}

}  // namespace backfi::phy::detail
