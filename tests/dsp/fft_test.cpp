#include "dsp/fft.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "dsp/math_util.h"
#include "dsp/rng.h"
#include "dsp/vec_ops.h"

namespace backfi::dsp {
namespace {

// Test-local spellings of the transforms through the plan cache: forward
// unnormalized, inverse 1/N normalized.
void fft_in_place(std::span<cplx> data) {
  get_fft_plan(data.size(), fft_direction::forward).execute(data);
}

cvec fft(std::span<const cplx> input) {
  cvec out(input.begin(), input.end());
  fft_in_place(out);
  return out;
}

cvec ifft(std::span<const cplx> input) {
  cvec out(input.begin(), input.end());
  get_fft_plan(out.size(), fft_direction::inverse).execute(out);
  const double inv_n = 1.0 / static_cast<double>(out.size());
  for (cplx& v : out) v *= inv_n;
  return out;
}

// The seed's inverse transform, 1/N normalized: its recurrence runs on
// phasor(+a) = conj(phasor(-a)), and conjugation commutes exactly with
// every complex add and multiply, so it equals the conjugated forward
// reference of the conjugated input to the bit.
void ifft_in_place_reference(std::span<cplx> data) {
  for (cplx& v : data) v = std::conj(v);
  fft_in_place_reference(data);
  const double inv_n = 1.0 / static_cast<double>(data.size());
  for (cplx& v : data) v = std::conj(v) * inv_n;
}

TEST(FftTest, IsPowerOfTwo) {
  EXPECT_TRUE(is_power_of_two(1));
  EXPECT_TRUE(is_power_of_two(64));
  EXPECT_FALSE(is_power_of_two(0));
  EXPECT_FALSE(is_power_of_two(48));
}

TEST(FftTest, DeltaTransformsToFlatSpectrum) {
  cvec x(64, cplx{0.0, 0.0});
  x[0] = 1.0;
  const cvec spectrum = fft(x);
  for (const cplx& v : spectrum) EXPECT_NEAR(std::abs(v - cplx(1.0, 0.0)), 0.0, 1e-12);
}

TEST(FftTest, SingleToneLandsInOneBin) {
  const std::size_t n = 64;
  const std::size_t k = 5;
  cvec x(n);
  for (std::size_t i = 0; i < n; ++i)
    x[i] = phasor(two_pi * static_cast<double>(k * i) / static_cast<double>(n));
  const cvec spectrum = fft(x);
  for (std::size_t bin = 0; bin < n; ++bin) {
    if (bin == k) {
      EXPECT_NEAR(std::abs(spectrum[bin]), static_cast<double>(n), 1e-9);
    } else {
      EXPECT_NEAR(std::abs(spectrum[bin]), 0.0, 1e-9);
    }
  }
}

TEST(FftTest, RoundTripIdentity) {
  rng gen(3);
  cvec x(256);
  for (auto& v : x) v = gen.complex_gaussian();
  const cvec y = ifft(fft(x));
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(std::abs(y[i] - x[i]), 0.0, 1e-10);
}

TEST(FftTest, ParsevalEnergyConservation) {
  rng gen(4);
  cvec x(128);
  for (auto& v : x) v = gen.complex_gaussian();
  const cvec spectrum = fft(x);
  EXPECT_NEAR(energy(spectrum), energy(x) * static_cast<double>(x.size()),
              1e-8 * energy(x) * x.size());
}

TEST(FftTest, LinearityHolds) {
  rng gen(5);
  cvec a(64), b(64);
  for (auto& v : a) v = gen.complex_gaussian();
  for (auto& v : b) v = gen.complex_gaussian();
  cvec sum(64);
  for (std::size_t i = 0; i < 64; ++i) sum[i] = 2.0 * a[i] + cplx{0.0, 3.0} * b[i];
  const cvec fa = fft(a), fb = fft(b), fsum = fft(sum);
  for (std::size_t i = 0; i < 64; ++i) {
    const cplx expected = 2.0 * fa[i] + cplx{0.0, 3.0} * fb[i];
    EXPECT_NEAR(std::abs(fsum[i] - expected), 0.0, 1e-9);
  }
}

TEST(FftTest, SizeOneIsIdentity) {
  cvec x = {cplx{2.0, -1.0}};
  const cvec y = fft(x);
  EXPECT_NEAR(std::abs(y[0] - x[0]), 0.0, 1e-15);
}

TEST(FftTest, ConvolutionTheorem) {
  // Circular convolution in time == multiplication in frequency.
  rng gen(6);
  const std::size_t n = 32;
  cvec x(n), h(n, cplx{0.0, 0.0});
  for (auto& v : x) v = gen.complex_gaussian();
  for (std::size_t i = 0; i < 4; ++i) h[i] = gen.complex_gaussian();

  // Direct circular convolution.
  cvec direct(n, cplx{0.0, 0.0});
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t k = 0; k < n; ++k) direct[i] += x[k] * h[(i + n - k) % n];

  cvec fx = fft(x), fh = fft(h);
  cvec product(n);
  for (std::size_t i = 0; i < n; ++i) product[i] = fx[i] * fh[i];
  const cvec via_fft = ifft(product);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(std::abs(via_fft[i] - direct[i]), 0.0, 1e-9);
}

cvec random_sequence(std::size_t n, std::uint64_t seed) {
  rng gen(seed);
  cvec x(n);
  for (auto& v : x) v = gen.complex_gaussian();
  return x;
}

double max_relative_error(const cvec& a, const cvec& b) {
  double scale = 0.0;
  for (const cplx& v : a) scale = std::max(scale, std::abs(v));
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    worst = std::max(worst, std::abs(a[i] - b[i]) / std::max(scale, 1e-300));
  return worst;
}

TEST(FftPlanTest, BitIdenticalToReferenceUpToCompatLimit) {
  // The simulation's regression anchors depend on this: the one kernel must
  // reproduce the seed transform's doubles exactly, at the WiFi PHY's 64
  // points and at every longer size too.
  for (std::size_t n = 1; n <= 4096; n <<= 1) {
    const cvec base = random_sequence(n, 100 + n);

    cvec expected = base;
    fft_in_place_reference(expected);
    cvec actual = base;
    get_fft_plan(n, fft_direction::forward).execute(actual);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(expected[i].real(), actual[i].real()) << "n=" << n << " i=" << i;
      EXPECT_EQ(expected[i].imag(), actual[i].imag()) << "n=" << n << " i=" << i;
    }

    cvec expected_inv = base;
    ifft_in_place_reference(expected_inv);
    cvec actual_inv = base;
    get_fft_plan(n, fft_direction::inverse).execute(actual_inv);
    const double inv_n = 1.0 / static_cast<double>(n);
    for (cplx& v : actual_inv) v *= inv_n;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(expected_inv[i].real(), actual_inv[i].real())
          << "n=" << n << " i=" << i;
      EXPECT_EQ(expected_inv[i].imag(), actual_inv[i].imag())
          << "n=" << n << " i=" << i;
    }
  }
}

TEST(FftPlanTest, PublicFftRoutesThroughBitIdenticalPlanAt64) {
  const cvec base = random_sequence(64, 12);
  cvec via_plan = base;
  fft_in_place(via_plan);
  cvec via_reference = base;
  fft_in_place_reference(via_reference);
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(via_reference[i].real(), via_plan[i].real());
    EXPECT_EQ(via_reference[i].imag(), via_plan[i].imag());
  }
}

TEST(FftPlanTest, RoundTripThroughPublicApiAt4096) {
  const cvec x = random_sequence(4096, 17);
  const cvec y = ifft(fft(x));
  EXPECT_LT(max_relative_error(x, y), 1e-10);
}

TEST(FftPlanTest, CacheReturnsStableSharedInstances) {
  const fft_plan& a = get_fft_plan(64, fft_direction::forward);
  const fft_plan& b = get_fft_plan(64, fft_direction::forward);
  EXPECT_EQ(&a, &b);
  const fft_plan& inv = get_fft_plan(64, fft_direction::inverse);
  EXPECT_NE(&a, &inv);
  EXPECT_EQ(a.size(), 64u);
  EXPECT_EQ(inv.direction(), fft_direction::inverse);
}

// The reference transform checks its size like the plans: a 48-point span
// used to run the bit-reversal permutation past the end of the buffer in
// release builds, where the assert was compiled out.
TEST(FftTest, ReferenceRejectsNonPowerOfTwo) {
  cvec odd(48, cplx{1.0, 0.0});
  EXPECT_THROW(fft_in_place_reference(odd), std::invalid_argument);
  cvec empty;
  EXPECT_THROW(fft_in_place_reference(empty), std::invalid_argument);
  cvec one(1, cplx{2.0, -3.0});
  fft_in_place_reference(one);
  EXPECT_EQ(one[0], (cplx{2.0, -3.0}));
}

TEST(FftPlanTest, RejectsInvalidSizes) {
  // Size checks are not assert-only: a 48-point request must not build a
  // plan into the 16-point cache slot, and size 0 must not index past the
  // cache, in release builds too.
  EXPECT_THROW(get_fft_plan(0, fft_direction::forward), std::invalid_argument);
  EXPECT_THROW(get_fft_plan(48, fft_direction::inverse), std::invalid_argument);
  EXPECT_THROW(get_fft_plan(std::size_t{1} << 41, fft_direction::forward),
               std::invalid_argument);
  EXPECT_THROW(fft_plan(48, fft_direction::forward), std::invalid_argument);
  EXPECT_THROW(fft(cvec(48)), std::invalid_argument);
  EXPECT_THROW(ifft(cvec(48)), std::invalid_argument);
  cvec too_long(32);
  EXPECT_THROW(get_fft_plan(16, fft_direction::forward).execute(too_long),
               std::invalid_argument);

  for (const fft_direction dir :
       {fft_direction::forward, fft_direction::inverse}) {
    const fft_plan& plan = get_fft_plan(16, dir);
    EXPECT_EQ(plan.size(), 16u);
    EXPECT_EQ(plan.direction(), dir);
  }
  const cvec base = random_sequence(16, 400);
  cvec expected = base;
  fft_in_place_reference(expected);
  const cvec actual = fft(base);
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(expected[i].real(), actual[i].real()) << i;
    EXPECT_EQ(expected[i].imag(), actual[i].imag()) << i;
  }
}

}  // namespace
}  // namespace backfi::dsp
