// The long equivalence sweep behind dsp/libm_kernels: 10^8 seeded draws
// per kernel, compared bit for bit with libm, and glibc's own error
// measured against libquadmath. The kernels keep a lane only when its
// double-double lies 1/32 ULP clear of a rounding midpoint, which is
// sound while glibc stays within 0.5 + 1/32 - 2^-9 ULP (2^-9 ULP bounds
// the double-double's own error). A libm whose error grows into that
// margin fails here before it can move a pinned literal.
//
// Registered with ctest only under -DBACKFI_LONG_TESTS=ON, labelled
// `long` (ctest -L long); tier-1 ctest runs do not include it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

#include "dsp/libm_kernels.h"
#include "dsp/rng.h"

#if defined(BACKFI_HAVE_QUADMATH)
#include <quadmath.h>
#endif

namespace backfi::dsp {
namespace {

constexpr std::size_t kDraws = 100000000;
constexpr std::size_t kBatch = 1 << 20;

std::uint64_t bits(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

double box_muller_u1(rng& gen) {
  double u;
  do {
    u = gen.uniform();
  } while (u <= 0.0);
  return u;
}

/// Draws `total` arguments in batches with `draw` and compares
/// sincos_block with std::sin / std::cos on every one.
template <typename Draw>
void sweep_sincos(std::uint64_t seed, std::size_t total, Draw draw) {
  rng gen(seed);
  std::vector<double> x(kBatch), sn(kBatch), cs(kBatch);
  std::size_t mismatches = 0, libm = 0;
  for (std::size_t done = 0; done < total; done += kBatch) {
    const std::size_t n = std::min(kBatch, total - done);
    for (std::size_t i = 0; i < n; ++i) x[i] = draw(gen);
    libm += sincos_block(std::span<const double>(x.data(), n),
                         std::span<double>(sn.data(), n),
                         std::span<double>(cs.data(), n));
    for (std::size_t i = 0; i < n; ++i) {
      if (bits(sn[i]) != bits(std::sin(x[i])) ||
          bits(cs[i]) != bits(std::cos(x[i]))) {
        if (mismatches++ < 5)
          ADD_FAILURE() << "sincos mismatch at x = " << std::hexfloat << x[i];
      }
    }
  }
  std::printf("sincos_block: %zu draws, %zu mismatches, libm share %.4f\n",
              total, mismatches,
              static_cast<double>(libm) / (2.0 * static_cast<double>(total)));
  EXPECT_EQ(mismatches, 0u);
}

TEST(LibmEquivalence, SincosBlockOnBoxMullerAngles) {
  sweep_sincos(101, kDraws, [](rng& g) { return two_pi * g.uniform(); });
}

TEST(LibmEquivalence, SincosBlockOnCfoPhases) {
  // 2*pi*(f0*t + d*t^2/2) for offsets up to 200 kHz over 10 ms captures.
  sweep_sincos(102, kDraws / 10, [](rng& g) {
    const double t = g.uniform(0.0, 1e-2);
    return two_pi * (g.uniform(-2e5, 2e5) * t + 0.5 * g.uniform(-1e6, 1e6) * t * t);
  });
}

TEST(LibmEquivalence, LogBlockOnBoxMullerRadii) {
  rng gen(103);
  std::vector<double> x(kBatch), out(kBatch);
  std::size_t mismatches = 0, libm = 0;
  for (std::size_t done = 0; done < kDraws; done += kBatch) {
    const std::size_t n = std::min(kBatch, kDraws - done);
    for (std::size_t i = 0; i < n; ++i) x[i] = box_muller_u1(gen);
    libm += log_block(std::span<const double>(x.data(), n),
                      std::span<double>(out.data(), n));
    for (std::size_t i = 0; i < n; ++i) {
      if (bits(out[i]) != bits(std::log(x[i]))) {
        if (mismatches++ < 5)
          ADD_FAILURE() << "log mismatch at x = " << std::hexfloat << x[i];
      }
    }
  }
  std::printf("log_block: %zu draws, %zu mismatches, libm share %.4f\n",
              kDraws, mismatches,
              static_cast<double>(libm) / static_cast<double>(kDraws));
  EXPECT_EQ(mismatches, 0u);
}

#if defined(BACKFI_HAVE_QUADMATH)

/// |g - f| in units of the last place of f's binade.
double ulp_error(double g, __float128 f) {
  int e;
  frexpq(f, &e);
  const __float128 ulp = ldexpq(1, std::max(e - 53, -1074));
  return static_cast<double>(fabsq(static_cast<__float128>(g) - f) / ulp);
}

TEST(LibmEquivalence, GlibcErrorLeavesTheMargin) {
  constexpr std::size_t kSample = 10000000;
  constexpr double kBound = 0.5 + 1.0 / 32.0 - 0x1p-9;
  rng gen(104);
  double sin_max = 0.0, cos_max = 0.0, log_max = 0.0;
  for (std::size_t i = 0; i < kSample; ++i) {
    const double x = two_pi * gen.uniform();
    const __float128 xq = x;
    sin_max = std::max(sin_max, ulp_error(std::sin(x), sinq(xq)));
    cos_max = std::max(cos_max, ulp_error(std::cos(x), cosq(xq)));
    const double u = box_muller_u1(gen);
    log_max = std::max(log_max, ulp_error(std::log(u), logq(u)));
  }
  std::printf("glibc max observed error over %zu draws: sin %.4f, cos %.4f, "
              "log %.4f ULP (bound %.4f)\n",
              kSample, sin_max, cos_max, log_max, kBound);
  EXPECT_LT(sin_max, kBound);
  EXPECT_LT(cos_max, kBound);
  EXPECT_LT(log_max, kBound);
}

#endif  // BACKFI_HAVE_QUADMATH

}  // namespace
}  // namespace backfi::dsp
