#include "dsp/fir.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <stdexcept>

#include "dsp/rng.h"
#include "dsp/vec_ops.h"

namespace backfi::dsp {
namespace {

TEST(FirTest, ConvolveWithDeltaIsIdentity) {
  const cvec x = {{1.0, 2.0}, {3.0, -1.0}, {0.5, 0.5}};
  const cvec delta = {cplx{1.0, 0.0}};
  const cvec y = convolve(x, delta);
  ASSERT_EQ(y.size(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(std::abs(y[i] - x[i]), 0.0, 1e-15);
}

TEST(FirTest, ConvolveWithShiftedDeltaDelays) {
  const cvec x = {{1.0, 0.0}, {2.0, 0.0}};
  const cvec h = {{0.0, 0.0}, {0.0, 0.0}, {1.0, 0.0}};
  const cvec y = convolve(x, h);
  ASSERT_EQ(y.size(), 4u);
  EXPECT_NEAR(std::abs(y[0]), 0.0, 1e-15);
  EXPECT_NEAR(std::abs(y[1]), 0.0, 1e-15);
  EXPECT_NEAR(std::abs(y[2] - cplx(1.0, 0.0)), 0.0, 1e-15);
  EXPECT_NEAR(std::abs(y[3] - cplx(2.0, 0.0)), 0.0, 1e-15);
}

TEST(FirTest, ConvolutionIsCommutative) {
  rng gen(8);
  cvec x(20), h(5);
  for (auto& v : x) v = gen.complex_gaussian();
  for (auto& v : h) v = gen.complex_gaussian();
  const cvec xy = convolve(x, h);
  const cvec yx = convolve(h, x);
  ASSERT_EQ(xy.size(), yx.size());
  for (std::size_t i = 0; i < xy.size(); ++i)
    EXPECT_NEAR(std::abs(xy[i] - yx[i]), 0.0, 1e-12);
}

TEST(FirTest, ConvolveEmptyReturnsEmpty) {
  const cvec x;
  const cvec h = {cplx{1.0, 0.0}};
  EXPECT_TRUE(convolve(x, h).empty());
  EXPECT_TRUE(convolve(h, x).empty());
}

TEST(FirTest, ConvolveSameTruncatesToInputLength) {
  rng gen(9);
  cvec x(50), h(7);
  for (auto& v : x) v = gen.complex_gaussian();
  for (auto& v : h) v = gen.complex_gaussian();
  const cvec same = convolve_same(x, h);
  const cvec full = convolve(x, h);
  ASSERT_EQ(same.size(), x.size());
  for (std::size_t i = 0; i < same.size(); ++i)
    EXPECT_NEAR(std::abs(same[i] - full[i]), 0.0, 1e-15);
}

cvec window_vec(std::size_t n, std::uint64_t seed) {
  rng gen(seed);
  cvec v(n);
  for (auto& s : v) s = gen.complex_gaussian();
  return v;
}

TEST(FirTest, ConvolveSameRangeBitIdenticalInsideWindowZeroOutside) {
  const cvec x = window_vec(300, 101);
  const cvec h = window_vec(5, 102);
  const cvec full = convolve_same(x, h);
  const std::size_t windows[][2] = {{0, 300},   {0, 0},     {10, 11},
                                    {37, 123},  {250, 300}, {290, 1000},
                                    {300, 300}, {500, 600}};
  for (const auto& w : windows) {
    // Only the window is written: the zeros outside it stay untouched.
    cvec ranged(x.size(), cplx{0.0, 0.0});
    convolve_same_range_into(x, h, w[0], w[1], ranged);
    ASSERT_EQ(ranged.size(), x.size());
    const std::size_t hi = w[1] < x.size() ? w[1] : x.size();
    const std::size_t lo = w[0] < hi ? w[0] : hi;
    for (std::size_t i = 0; i < ranged.size(); ++i) {
      const cplx want = (i >= lo && i < hi) ? full[i] : cplx{0.0, 0.0};
      ASSERT_EQ(ranged[i], want)
          << "window [" << w[0] << ", " << w[1] << ") sample " << i;
    }
  }
}

TEST(FirTest, ConvolveSameRangeAllZeroTapsGiveZeroWindow) {
  const cvec x = window_vec(64, 103);
  const cvec h(4, cplx{0.0, 0.0});
  cvec ranged(x.size(), cplx{7.0, -7.0});
  convolve_same_range_into(x, h, 5, 20, ranged);
  for (std::size_t i = 5; i < 20; ++i) ASSERT_EQ(ranged[i], cplx(0.0, 0.0)) << i;
}

TEST(FirTest, ConvolveSameRangeMatchesFftRegime) {
  // A kernel longer than any channel the simulation draws still takes the
  // one direct form, bitwise equal to convolve_same inside the window.
  const cvec x = window_vec(512, 104);
  const cvec h = window_vec(103, 105);
  const cvec full = convolve_same(x, h);
  cvec ranged;
  convolve_same_range_into(x, h, 100, 200, ranged);
  ASSERT_EQ(ranged.size(), x.size());
  EXPECT_EQ(std::memcmp(ranged.data() + 100, full.data() + 100,
                        100 * sizeof(cplx)),
            0);
}

TEST(FirTest, ConvolveSameRangeIntoReusesWarmBuffer) {
  const cvec x = window_vec(256, 106);
  const cvec h = window_vec(6, 107);
  const cvec full = convolve_same(x, h);
  cvec out;
  // The warm re-runs reproduce the window (their allocation count is
  // asserted in tests/alloc).
  for (int rep = 0; rep < 4; ++rep) {
    convolve_same_range_into(x, h, 30, 90, out);
    ASSERT_EQ(out.size(), x.size());
    for (std::size_t i = 30; i < 90; ++i) ASSERT_EQ(out[i], full[i]) << i;
  }
}

TEST(FirTest, ConvolveSameIntoMatchesConvolveSame) {
  const cvec x = window_vec(200, 108);
  const cvec h = window_vec(7, 109);
  const cvec full = convolve_same(x, h);
  cvec out(17, cplx{3.0, -4.0});  // dirty and wrongly sized
  convolve_same_into(x, h, out);
  ASSERT_EQ(out.size(), full.size());
  for (std::size_t i = 0; i < full.size(); ++i) ASSERT_EQ(out[i], full[i]) << i;
}

TEST(FirTest, ConvolveSameIntoSpanWritesEverySampleOrThrows) {
  const cvec x = window_vec(200, 113);
  const cvec h = window_vec(7, 114);
  const cvec full = convolve_same(x, h);
  cvec out(x.size() + 10, cplx{3.0, -4.0});  // dirty; a prefix is the span
  convolve_same_into(x, h, std::span<cplx>(out).first(x.size()));
  for (std::size_t i = 0; i < full.size(); ++i) ASSERT_EQ(out[i], full[i]) << i;
  EXPECT_EQ(out[x.size()], (cplx{3.0, -4.0}));  // past the span: untouched
  convolve_same_into(x, cvec{}, std::span<cplx>(out).first(x.size()));
  for (std::size_t i = 0; i < x.size(); ++i) ASSERT_EQ(out[i], cplx{}) << i;
  EXPECT_THROW(convolve_same_into(x, h, std::span<cplx>(out)),
               std::invalid_argument);
}

TEST(FirTest, ConvolveSameSubtractIntoMatchesMaterializedSubtract) {
  // Direct form at every kernel length, long kernels included.
  for (const std::size_t taps : {std::size_t{6}, std::size_t{99}}) {
    const cvec x = window_vec(400, 110 + taps);
    const cvec rx = window_vec(420, 111 + taps);  // longer rx: plain tail copy
    const cvec h = window_vec(taps, 112 + taps);
    const cvec conv = convolve(x, h);
    cvec out;
    convolve_same_subtract_into(rx, x, h, out);
    ASSERT_EQ(out.size(), rx.size());
    for (std::size_t i = 0; i < rx.size(); ++i) {
      const cplx want = i < x.size() ? rx[i] - conv[i] : rx[i];
      ASSERT_EQ(out[i], want) << "taps " << taps << " sample " << i;
    }
  }
}

// max(|re|, |im|) over v with NaN components skipped: the saturation
// scan's view of a residual.
double reference_peak(const cvec& v) {
  double peak = 0.0;
  for (const cplx& c : v)
    for (const double a : {std::fabs(c.real()), std::fabs(c.imag())})
      if (a > peak) peak = a;
  return peak;
}

TEST(FirTest, ConvolveSameSubtractEnergyMatchesSeparatePasses) {
  // The fused energy accumulation must be bit-identical to running
  // dsp::energy over the output afterwards — the receive chain's AGC full
  // scale (and so every digitized bit downstream) hangs off these bits.
  for (const std::size_t taps :
       {std::size_t{1}, std::size_t{6}, std::size_t{8}, std::size_t{15},
        std::size_t{99}}) {
    for (const std::size_t nx : {std::size_t{5}, std::size_t{37},
                                 std::size_t{400}, std::size_t{1033}}) {
      const cvec x = window_vec(nx, 150 + taps + nx);
      const cvec rx = window_vec(nx + 20, 151 + taps + nx);  // plain tail
      const cvec h = window_vec(taps, 152 + taps + nx);
      cvec reference;
      convolve_same_subtract_into(rx, x, h, reference);
      cvec out;
      double peak = 0.0;
      const double fused = convolve_same_subtract_energy_into(
          rx, x, h, 0, rx.size(), 0.0, out, peak);
      ASSERT_EQ(out.size(), reference.size());
      for (std::size_t i = 0; i < reference.size(); ++i)
        ASSERT_EQ(out[i], reference[i]) << taps << "x" << nx << " @" << i;
      ASSERT_EQ(fused, energy(out)) << taps << "x" << nx;
      ASSERT_EQ(peak, reference_peak(out)) << taps << "x" << nx;
    }
  }
  // Degenerate operands follow convolve_same_subtract_into's copy path.
  const cvec rx = window_vec(64, 153);
  cvec out;
  double peak = 0.0;
  EXPECT_EQ(convolve_same_subtract_energy_into(rx, {}, {}, 0, rx.size(), 0.0,
                                               out, peak),
            energy(rx));
  EXPECT_EQ(peak, reference_peak(rx));
  ASSERT_EQ(out.size(), rx.size());
  for (std::size_t i = 0; i < rx.size(); ++i) ASSERT_EQ(out[i], rx[i]);
}

// Cancelling a capture in consecutive ranges that carry the energy and peak
// from one call to the next (as the receive chain does while the capture
// arrives) gives the outputs, energy bits and peak of one whole call, wherever
// the cuts fall: inside the left edge, between vector blocks, mid-block, or
// across the plain-copy tail.
TEST(FirTest, SplitSubtractEnergyCarriesTheRunningSum) {
  rng gen(170);
  for (const std::size_t taps : {std::size_t{1}, std::size_t{6},
                                 std::size_t{15}}) {
    const cvec x = window_vec(1033, 171 + taps);
    const cvec rx = window_vec(1050, 172 + taps);  // plain tail past x
    const cvec h = window_vec(taps, 173 + taps);
    cvec whole;
    double whole_peak = 0.0;
    const double whole_energy = convolve_same_subtract_energy_into(
        rx, x, h, 0, rx.size(), 0.0, whole, whole_peak);
    for (int trial = 0; trial < 40; ++trial) {
      cvec out;
      double peak = 0.0, e = 0.0;
      std::size_t done = 0;
      while (done < rx.size()) {
        // Mostly short steps, so the cuts land at many block phases.
        const std::size_t step = trial % 4 == 0 ? 1 + gen.uniform_int(3)
                                                : gen.uniform_int(97);
        const std::size_t upto = std::min(rx.size(), done + step);
        e = convolve_same_subtract_energy_into(rx, x, h, done, upto, e, out,
                                               peak);
        done = upto;
      }
      ASSERT_EQ(out.size(), whole.size());
      for (std::size_t i = 0; i < whole.size(); ++i)
        ASSERT_EQ(out[i], whole[i]) << taps << " taps, trial " << trial;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(e),
                std::bit_cast<std::uint64_t>(whole_energy))
          << taps << " taps, trial " << trial;
      ASSERT_EQ(peak, whole_peak) << taps << " taps, trial " << trial;
    }
  }
}

// The fused peak ignores NaN components and sees infinities, wherever they
// fall: in the vector blocks, the scalar edges or the plain-copy tail.
TEST(FirTest, SubtractEnergyPeakIgnoresNanAndSeesInfinity) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const cvec x = window_vec(300, 160);
  const cvec h = window_vec(6, 161);
  for (const std::size_t at : {std::size_t{0}, std::size_t{3}, std::size_t{150},
                               std::size_t{299}, std::size_t{310}}) {
    cvec rx = window_vec(320, 162);
    rx[at] = cplx{nan, 0.25};
    cvec out;
    double peak = 0.0;
    convolve_same_subtract_energy_into(rx, x, h, 0, rx.size(), 0.0, out, peak);
    EXPECT_EQ(peak, reference_peak(out)) << at;
    EXPECT_FALSE(std::isnan(peak)) << at;
    rx[at + 1] = cplx{0.0, -inf};
    peak = 0.0;
    convolve_same_subtract_energy_into(rx, x, h, 0, rx.size(), 0.0, out, peak);
    EXPECT_EQ(peak, inf) << at;
  }
}

}  // namespace
}  // namespace backfi::dsp
