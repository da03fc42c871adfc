#include "channel/multipath.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "dsp/math_util.h"
#include "dsp/vec_ops.h"

namespace backfi::channel {
namespace {

TEST(MultipathTest, TapCountMatchesProfile) {
  dsp::rng gen(1);
  const cvec taps = draw_multipath({.n_taps = 5}, gen);
  EXPECT_EQ(taps.size(), 5u);
}

TEST(MultipathTest, ZeroTapsThrows) {
  dsp::rng gen(1);
  EXPECT_THROW((void)draw_multipath({.n_taps = 0}, gen),
               std::invalid_argument);
}

TEST(MultipathTest, AveragePowerMatchesTotalGain) {
  dsp::rng gen(2);
  const multipath_profile profile{.n_taps = 4, .total_gain_db = -20.0};
  double acc = 0.0;
  const int trials = 4000;
  for (int t = 0; t < trials; ++t) acc += tap_power(draw_multipath(profile, gen));
  const double mean_db = dsp::to_db(acc / trials);
  EXPECT_NEAR(mean_db, -20.0, 0.5);
}

TEST(MultipathTest, ExponentialProfileDecaysWithDelay) {
  dsp::rng gen(3);
  const multipath_profile profile{
      .n_taps = 4, .delay_spread_ns = 50.0, .rician_k_db = -100.0};
  std::vector<double> power(4, 0.0);
  const int trials = 5000;
  for (int t = 0; t < trials; ++t) {
    const cvec taps = draw_multipath(profile, gen);
    for (std::size_t k = 0; k < 4; ++k) power[k] += std::norm(taps[k]);
  }
  for (std::size_t k = 1; k < 4; ++k) EXPECT_LT(power[k], power[k - 1]) << k;
  // 50 ns sample spacing over 50 ns delay spread -> e^-1 per tap.
  EXPECT_NEAR(power[1] / power[0], std::exp(-1.0), 0.05);
}

TEST(MultipathTest, RicianFirstTapHasSmallVariance) {
  dsp::rng gen(4);
  const multipath_profile strong_los{
      .n_taps = 2, .rician_k_db = 20.0, .total_gain_db = 0.0};
  // With K = 100 the first tap magnitude is nearly deterministic.
  double min_mag = 1e9, max_mag = 0.0;
  for (int t = 0; t < 500; ++t) {
    const cvec taps = draw_multipath(strong_los, gen);
    min_mag = std::min(min_mag, std::abs(taps[0]));
    max_mag = std::max(max_mag, std::abs(taps[0]));
  }
  EXPECT_GT(min_mag / max_mag, 0.5);
}

TEST(MultipathTest, RayleighTapsAreCircular) {
  dsp::rng gen(5);
  const multipath_profile profile{.n_taps = 2, .rician_k_db = -100.0};
  cplx mean{0.0, 0.0};
  const int trials = 5000;
  for (int t = 0; t < trials; ++t) mean += draw_multipath(profile, gen)[1];
  EXPECT_LT(std::abs(mean) / trials, 0.02);
}

TEST(MultipathTest, ApplyChannelMatchesConvolution) {
  dsp::rng gen(6);
  cvec x(50);
  for (auto& v : x) v = gen.complex_gaussian();
  const cvec taps = draw_multipath({.n_taps = 3}, gen);
  const cvec y = apply_channel(x, taps);
  ASSERT_EQ(y.size(), x.size());
  // Spot-check a middle sample.
  cplx expected{0.0, 0.0};
  for (std::size_t k = 0; k < taps.size(); ++k) expected += taps[k] * x[25 - k];
  EXPECT_NEAR(std::abs(y[25] - expected), 0.0, 1e-12);
}

TEST(MultipathTest, DeterministicGivenSeed) {
  dsp::rng a(7), b(7);
  const cvec ta = draw_multipath({.n_taps = 3}, a);
  const cvec tb = draw_multipath({.n_taps = 3}, b);
  for (std::size_t k = 0; k < 3; ++k)
    EXPECT_EQ(ta[k], tb[k]);
}

}  // namespace
}  // namespace backfi::channel
