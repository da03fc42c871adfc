#include "reader/mrc.h"

#include <gtest/gtest.h>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "dsp/math_util.h"
#include "dsp/rng.h"

namespace backfi::reader {
namespace {

/// Reference: mrc_estimate over each symbol's window, stopping at the
/// first symbol that runs past the capture (the later ones stay 0).
cvec direct_symbol_estimates(std::span<const cplx> y,
                             std::span<const cplx> yhat,
                             std::size_t first_symbol_start,
                             std::size_t samples_per_symbol,
                             std::size_t n_symbols, std::size_t guard) {
  cvec out(n_symbols, cplx{0.0, 0.0});
  for (std::size_t s = 0; s < n_symbols; ++s) {
    const std::size_t start = first_symbol_start + s * samples_per_symbol;
    const std::size_t end = start + samples_per_symbol;
    if (end > y.size()) break;
    out[s] = mrc_estimate(y, yhat, start + guard, end);
  }
  return out;
}

/// The decoder's path: products over the whole capture, then per-symbol
/// sums.
cvec mrc_symbol_estimates(std::span<const cplx> y, std::span<const cplx> yhat,
                          std::size_t first_symbol_start,
                          std::size_t samples_per_symbol,
                          std::size_t n_symbols, std::size_t guard) {
  cvec products;
  std::vector<double> weights;
  mrc_precompute(y, yhat, 0, y.size(), products, weights);
  cvec out(n_symbols);
  mrc_symbol_estimates_from_products(products, weights, 0, y.size(),
                                     first_symbol_start, samples_per_symbol,
                                     n_symbols, guard, out);
  return out;
}

/// Synthetic observation: y = yhat * e^{j theta} + noise.
struct observation {
  cvec y;
  cvec yhat;
};

observation make_observation(double theta, double noise_sigma, std::size_t n,
                             std::uint64_t seed) {
  dsp::rng gen(seed);
  observation obs;
  obs.yhat.resize(n);
  obs.y.resize(n);
  const cplx rot = dsp::phasor(theta);
  for (std::size_t i = 0; i < n; ++i) {
    // Wildly varying magnitudes, like an OFDM excitation through a channel.
    obs.yhat[i] = gen.complex_gaussian();
    obs.y[i] = obs.yhat[i] * rot + noise_sigma * gen.complex_gaussian();
  }
  return obs;
}

TEST(MrcTest, RecoversPhaseNoiseless) {
  for (double theta : {0.0, 0.7, -2.1, 3.0}) {
    const auto obs = make_observation(theta, 0.0, 64, 1);
    const cplx m = mrc_estimate(obs.y, obs.yhat, 0, obs.y.size());
    EXPECT_NEAR(dsp::wrap_phase(std::arg(m) - theta), 0.0, 1e-12) << theta;
    EXPECT_NEAR(std::abs(m), 1.0, 1e-12);
  }
}

TEST(MrcTest, EmptyOrSilentWindowGivesZero) {
  const cvec zeros(10, cplx{0.0, 0.0});
  EXPECT_EQ(mrc_estimate(zeros, zeros, 0, 10), cplx(0.0, 0.0));
  const auto obs = make_observation(1.0, 0.0, 10, 2);
  EXPECT_EQ(mrc_estimate(obs.y, obs.yhat, 5, 5), cplx(0.0, 0.0));
}

TEST(MrcTest, VarianceShrinksWithWindowLength) {
  // Average phase-estimate error over many draws for two window sizes.
  double err_short = 0.0, err_long = 0.0;
  const int trials = 200;
  for (int t = 0; t < trials; ++t) {
    const auto s = make_observation(0.5, 1.0, 8, 100 + t);
    const auto l = make_observation(0.5, 1.0, 128, 500 + t);
    err_short += std::norm(mrc_estimate(s.y, s.yhat, 0, 8) - dsp::phasor(0.5));
    err_long += std::norm(mrc_estimate(l.y, l.yhat, 0, 128) - dsp::phasor(0.5));
  }
  EXPECT_LT(err_long, err_short / 4.0);
}

TEST(MrcTest, BeatsNaiveDivision) {
  // The paper's point: dividing y by yhat amplifies noise on weak samples.
  double err_mrc = 0.0, err_naive = 0.0;
  const int trials = 300;
  for (int t = 0; t < trials; ++t) {
    const auto obs = make_observation(1.2, 0.5, 32, 1000 + t);
    err_mrc += std::norm(mrc_estimate(obs.y, obs.yhat, 0, 32) - dsp::phasor(1.2));
    err_naive += std::norm(naive_division_estimate(obs.y, obs.yhat, 0, 32) -
                           dsp::phasor(1.2));
  }
  EXPECT_LT(err_mrc, err_naive / 2.0);
}

TEST(MrcTest, SymbolEstimatesHonourGuardAndBoundaries) {
  // Two symbols with different phases; the guard must exclude the samples
  // we deliberately corrupt at each symbol head.
  dsp::rng gen(3);
  const std::size_t sps = 20, guard = 4;
  cvec yhat(2 * sps), y(2 * sps);
  for (std::size_t i = 0; i < yhat.size(); ++i) yhat[i] = gen.complex_gaussian();
  for (std::size_t i = 0; i < sps; ++i) y[i] = yhat[i] * dsp::phasor(0.3);
  for (std::size_t i = sps; i < 2 * sps; ++i) y[i] = yhat[i] * dsp::phasor(-1.1);
  // Corrupt the first `guard` samples of each symbol (channel transition).
  for (std::size_t s = 0; s < 2; ++s)
    for (std::size_t i = 0; i < guard; ++i) y[s * sps + i] = {10.0, -10.0};

  const cvec m = mrc_symbol_estimates(y, yhat, 0, sps, 2, guard);
  ASSERT_EQ(m.size(), 2u);
  EXPECT_NEAR(dsp::wrap_phase(std::arg(m[0]) - 0.3), 0.0, 1e-9);
  EXPECT_NEAR(dsp::wrap_phase(std::arg(m[1]) + 1.1), 0.0, 1e-9);
}

TEST(MrcTest, TruncatedFinalSymbolLeftZero) {
  const auto obs = make_observation(0.2, 0.0, 30, 4);
  // Ask for 3 symbols of 16 samples from a 30-sample buffer: only 1 fits.
  const cvec m = mrc_symbol_estimates(obs.y, obs.yhat, 0, 16, 3, 2);
  ASSERT_EQ(m.size(), 3u);
  EXPECT_GT(std::abs(m[0]), 0.5);
  EXPECT_EQ(m[1], cplx(0.0, 0.0));
  EXPECT_EQ(m[2], cplx(0.0, 0.0));
}


TEST(MrcTest, PrecomputedProductsReproduceSymbolEstimates) {
  dsp::rng gen(55);
  const std::size_t n = 400;
  cvec y(n), yhat(n);
  for (auto& v : y) v = gen.complex_gaussian();
  for (auto& v : yhat) v = gen.complex_gaussian();
  const std::size_t first = 37, sps = 20, n_sym = 15, guard = 4;
  const cvec direct =
      direct_symbol_estimates(y, yhat, first, sps, n_sym, guard);

  const std::size_t begin = 30, end = n;
  cvec products;
  std::vector<double> weights;
  mrc_precompute(y, yhat, begin, end, products, weights);
  ASSERT_EQ(products.size(), end - begin);
  ASSERT_EQ(weights.size(), end - begin);
  cvec out(n_sym);
  mrc_symbol_estimates_from_products(products, weights, begin, n, first, sps,
                                     n_sym, guard, out);
  for (std::size_t s = 0; s < n_sym; ++s) ASSERT_EQ(out[s], direct[s]) << s;
}

TEST(MrcTest, ProductsPathReproducesEndOfCaptureTruncation) {
  dsp::rng gen(56);
  const std::size_t n = 100;
  cvec y(n), yhat(n);
  for (auto& v : y) v = gen.complex_gaussian();
  for (auto& v : yhat) v = gen.complex_gaussian();
  // The final symbols extend past the capture; from_products must reproduce
  // the original zero-fill of truncated symbols via `capture_size`.
  const std::size_t first = 10, sps = 16, n_sym = 7, guard = 3;
  const cvec direct =
      direct_symbol_estimates(y, yhat, first, sps, n_sym, guard);

  cvec products;
  std::vector<double> weights;
  mrc_precompute(y, yhat, 0, n, products, weights);
  cvec out(n_sym);
  mrc_symbol_estimates_from_products(products, weights, 0, n, first, sps,
                                     n_sym, guard, out);
  for (std::size_t s = 0; s < n_sym; ++s) ASSERT_EQ(out[s], direct[s]) << s;
}

// Caller-passed spans and ranges are checked in every build type: a
// Release build compiles asserts away, and each of these would read or
// write past a buffer.
TEST(MrcTest, EstimateRejectsMismatchedSpansAndBadRanges) {
  const observation obs = make_observation(0.3, 0.1, 64, 31);
  const cvec short_yhat(obs.yhat.begin(), obs.yhat.begin() + 32);
  EXPECT_THROW(mrc_estimate(obs.y, short_yhat, 0, 64), std::invalid_argument);
  EXPECT_THROW(mrc_estimate(obs.y, obs.yhat, 0, 65), std::invalid_argument);
  EXPECT_THROW(mrc_estimate(obs.y, obs.yhat, 10, 9), std::invalid_argument);
  EXPECT_NO_THROW(mrc_estimate(obs.y, obs.yhat, 64, 64));
}

TEST(MrcTest, PrecomputeRejectsMismatchedSpansAndBadRanges) {
  const observation obs = make_observation(0.3, 0.1, 64, 32);
  const cvec short_yhat(obs.yhat.begin(), obs.yhat.begin() + 32);
  cvec products;
  std::vector<double> weights;
  EXPECT_THROW(mrc_precompute(obs.y, short_yhat, 0, 64, products, weights),
               std::invalid_argument);
  EXPECT_THROW(mrc_precompute(obs.y, obs.yhat, 0, 65, products, weights),
               std::invalid_argument);
  EXPECT_THROW(mrc_precompute(obs.y, obs.yhat, 5, 4, products, weights),
               std::invalid_argument);
  EXPECT_TRUE(products.empty());
}

TEST(MrcTest, SymbolEstimatesFromProductsRejectBadArguments) {
  const observation obs = make_observation(0.3, 0.1, 64, 33);
  cvec products;
  std::vector<double> weights;
  mrc_precompute(obs.y, obs.yhat, 16, 48, products, weights);
  cvec out(4, cplx{7.0, 7.0});
  const auto call = [&](std::span<const double> w, std::size_t first,
                        std::size_t sps, std::size_t n, std::size_t guard,
                        std::span<cplx> o) {
    mrc_symbol_estimates_from_products(products, w, 16, 64, first, sps, n,
                                       guard, o);
  };
  // guard >= samples_per_symbol, products/weights lengths, a short out.
  EXPECT_THROW(call(weights, 16, 8, 4, 8, out), std::invalid_argument);
  EXPECT_THROW(call(std::span<const double>(weights).first(31), 16, 8, 4, 2,
                    out),
               std::invalid_argument);
  EXPECT_THROW(call(weights, 16, 8, 4, 2, std::span<cplx>(out).first(3)),
               std::invalid_argument);
  // Symbols inside the capture but outside the window [16, 48): one
  // starting before it, one running past its end.
  EXPECT_THROW(call(weights, 8, 8, 4, 2, out), std::invalid_argument);
  cvec five(5);
  EXPECT_THROW(call(weights, 16, 8, 5, 2, five), std::invalid_argument);
  for (const cplx& v : out) EXPECT_EQ(v, cplx(7.0, 7.0));
  // Symbols past the capture end (here 48) are not checked against the
  // window; they stay 0.
  mrc_symbol_estimates_from_products(products, weights, 16, 48, 16, 16, 4, 2,
                                     out);
  EXPECT_NE(out[1], cplx(0.0, 0.0));
  EXPECT_EQ(out[2], cplx(0.0, 0.0));
  EXPECT_EQ(out[3], cplx(0.0, 0.0));
}

TEST(MrcTest, NaiveDivisionRejectsMismatchedSpansAndBadRanges) {
  const observation obs = make_observation(0.3, 0.1, 64, 34);
  const cvec short_yhat(obs.yhat.begin(), obs.yhat.begin() + 32);
  EXPECT_THROW(naive_division_estimate(obs.y, short_yhat, 0, 64),
               std::invalid_argument);
  EXPECT_THROW(naive_division_estimate(obs.y, obs.yhat, 0, 65),
               std::invalid_argument);
  EXPECT_THROW(naive_division_estimate(obs.y, obs.yhat, 3, 2),
               std::invalid_argument);
}

}  // namespace
}  // namespace backfi::reader
