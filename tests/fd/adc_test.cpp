#include "fd/adc.h"

#include <gtest/gtest.h>
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "dsp/rng.h"
#include "dsp/vec_ops.h"

namespace backfi::fd {
namespace {

/// quantize_range_saturation over the whole of x, into a fresh buffer.
cvec quantize_all(std::span<const cplx> x, const adc_config& config) {
  cvec out(x.size());
  unsigned clipped = 0;
  quantize_range_saturation(x.data(), 0, x.size(), config, out.data(), clipped);
  return out;
}

TEST(AdcTest, QuantizationErrorBoundedByHalfStep) {
  dsp::rng gen(1);
  cvec x(1000);
  for (auto& v : x) v = 0.5 * gen.complex_gaussian();
  const adc_config cfg{.bits = 10, .full_scale = 4.0};
  const double step = 2.0 * cfg.full_scale / 1024.0;
  const cvec q = quantize_all(x, cfg);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_LE(std::abs(q[i].real() - x[i].real()), step / 2 + 1e-12);
    EXPECT_LE(std::abs(q[i].imag() - x[i].imag()), step / 2 + 1e-12);
  }
}

TEST(AdcTest, ClipsBeyondFullScale) {
  const cvec x = {{10.0, -10.0}};
  const cvec q = quantize_all(x, {.bits = 8, .full_scale = 1.0});
  EXPECT_LE(q[0].real(), 1.0);
  EXPECT_GE(q[0].imag(), -1.0);
  EXPECT_NEAR(q[0].real(), 1.0, 0.01);
}

TEST(AdcTest, MeasuredNoiseMatchesTheory) {
  dsp::rng gen(2);
  cvec x(200000);
  for (auto& v : x) v = 0.2 * gen.complex_gaussian();
  const adc_config cfg{.bits = 8, .full_scale = 1.0};
  const cvec q = quantize_all(x, cfg);
  double err = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) err += std::norm(q[i] - x[i]);
  err /= static_cast<double>(x.size());
  EXPECT_NEAR(err / quantization_noise_power(cfg), 1.0, 0.1);
}

TEST(AdcTest, MoreBitsLessNoise) {
  EXPECT_LT(quantization_noise_power({.bits = 12, .full_scale = 1.0}),
            quantization_noise_power({.bits = 8, .full_scale = 1.0}) / 100.0);
}

TEST(AdcTest, AgcTracksInputRms) {
  dsp::rng gen(3);
  cvec x(5000);
  for (auto& v : x) v = 0.1 * gen.complex_gaussian();
  EXPECT_NEAR(agc_full_scale(x, 4.0), 0.4, 0.02);
}

TEST(AdcTest, QuantizeMatchesScalarRoundReferenceOnHalfwayCodes) {
  // The adc TU compiles with -fno-trapping-math so std::round expands to an
  // inline (vectorized) sequence. round() is exactly specified for every
  // input, so the quantizer grid must match a libm-round reference computed
  // here at default flags — including the half-step inputs where an inexact
  // expansion (e.g. the naive add-0.5-then-truncate) would differ.
  adc_config cfg;
  cfg.bits = 10;
  cfg.full_scale = 1.6;
  const double step = 2.0 * cfg.full_scale / static_cast<double>(1ULL << cfg.bits);
  static double (*volatile libm_round)(double) = &std::round;  // no inlining

  cvec x;
  for (int k = -1030; k <= 1030; ++k) {
    const double half_code = static_cast<double>(k) * step / 2.0;
    x.push_back(cplx{half_code, -half_code});
    x.push_back(cplx{std::nextafter(half_code, 10.0),
                     std::nextafter(half_code, -10.0)});
  }
  const cvec q = quantize_all(x, cfg);
  ASSERT_EQ(q.size(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    const auto axis = [&](double v) {
      const double clipped = std::clamp(v, -cfg.full_scale, cfg.full_scale);
      return libm_round(clipped / step) * step;
    };
    const cplx want{axis(x[i].real()), axis(x[i].imag())};
    ASSERT_EQ(std::bit_cast<std::uint64_t>(q[i].real()),
              std::bit_cast<std::uint64_t>(want.real()))
        << "sample " << i << " in " << x[i].real();
    ASSERT_EQ(std::bit_cast<std::uint64_t>(q[i].imag()),
              std::bit_cast<std::uint64_t>(want.imag()))
        << "sample " << i << " in " << x[i].imag();
  }
}

}  // namespace
}  // namespace backfi::fd
