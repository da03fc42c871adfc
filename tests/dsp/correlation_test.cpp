#include "dsp/correlation.h"

#include <gtest/gtest.h>

#include "dsp/math_util.h"
#include "dsp/rng.h"
#include "dsp/vec_ops.h"

namespace backfi::dsp {
namespace {

cvec random_sequence(std::size_t n, std::uint64_t seed) {
  rng gen(seed);
  cvec x(n);
  for (auto& v : x) v = gen.complex_gaussian();
  return x;
}

TEST(CorrelationTest, PeakAtEmbeddedReferenceOffset) {
  const cvec ref = random_sequence(32, 1);
  cvec signal(200, cplx{0.0, 0.0});
  const std::size_t offset = 77;
  for (std::size_t i = 0; i < ref.size(); ++i) signal[offset + i] = ref[i];

  const rvec metric = normalized_correlation(signal, ref);
  std::size_t best = 0;
  for (std::size_t i = 1; i < metric.size(); ++i)
    if (metric[i] > metric[best]) best = i;
  EXPECT_EQ(best, offset);
  EXPECT_NEAR(metric[best], 1.0, 1e-9);
}

TEST(CorrelationTest, NormalizedCorrelationInvariantToScaling) {
  const cvec ref = random_sequence(16, 2);
  cvec signal(100, cplx{0.0, 0.0});
  for (std::size_t i = 0; i < ref.size(); ++i) signal[40 + i] = ref[i] * cplx{0.0, 3.0};
  const rvec metric = normalized_correlation(signal, ref);
  EXPECT_NEAR(metric[40], 1.0, 1e-9);
}

TEST(CorrelationTest, CrossCorrelateMatchesDirectComputation) {
  const cvec signal = random_sequence(20, 5);
  const cvec ref = random_sequence(4, 6);
  const cvec out = cross_correlate(signal, ref);
  ASSERT_EQ(out.size(), 17u);
  for (std::size_t n = 0; n < out.size(); ++n) {
    cplx expected{0.0, 0.0};
    for (std::size_t k = 0; k < ref.size(); ++k)
      expected += signal[n + k] * std::conj(ref[k]);
    EXPECT_NEAR(std::abs(out[n] - expected), 0.0, 1e-12);
  }
}

TEST(CorrelationTest, TooShortSignalGivesEmpty) {
  const cvec ref = random_sequence(16, 7);
  const cvec signal = random_sequence(8, 8);
  EXPECT_TRUE(cross_correlate(signal, ref).empty());
  EXPECT_TRUE(normalized_correlation(signal, ref).empty());
}

TEST(CorrelationTest, WindowEnergyDoesNotDriftOverLongCaptures) {
  // A capture that opens with a big transient and then goes quiet: the
  // incremental energy update leaves a residue of the large values'
  // rounding error, which swamps the tiny true energy deep into the buffer
  // unless the window energy is periodically rebuilt. With the periodic
  // exact refresh, the metric must match a per-position exact computation.
  const std::size_t ref_len = 16;
  const cvec ref = random_sequence(ref_len, 13);
  rng gen(14);
  cvec signal(3 * normalized_correlation_refresh_interval);
  for (std::size_t i = 0; i < signal.size(); ++i) {
    const double amp = i < 512 ? 1e8 : 1e-4;
    signal[i] = gen.complex_gaussian() * amp;
  }
  // Plant one scaled reference copy late in the quiet region.
  const std::size_t offset = signal.size() - 2 * ref_len;
  for (std::size_t i = 0; i < ref_len; ++i)
    signal[offset + i] = ref[i] * cplx{2e-4, 1e-4};

  const rvec metric = normalized_correlation(signal, ref);
  const double ref_norm = std::sqrt(energy(ref));
  ASSERT_EQ(metric.size(), signal.size() - ref_len + 1);
  for (std::size_t n = signal.size() / 2; n < metric.size(); n += 257) {
    cplx acc{0.0, 0.0};
    double window = 0.0;
    for (std::size_t k = 0; k < ref_len; ++k) {
      acc += signal[n + k] * std::conj(ref[k]);
      window += std::norm(signal[n + k]);
    }
    const double exact = std::abs(acc) / (std::sqrt(window) * ref_norm);
    EXPECT_NEAR(metric[n], exact, 1e-6 * std::max(exact, 1.0)) << "n=" << n;
  }
  // The planted copy still produces a clean normalized peak.
  EXPECT_NEAR(metric[offset], 1.0, 1e-6);
}

TEST(CorrelationTest, DelayedAutocorrelationDetectsPeriodicity) {
  // A signal with period 16 has autocorrelation metric ~1 at lag 16.
  const std::size_t lag = 16;
  cvec periodic;
  const cvec seed = random_sequence(lag, 9);
  for (int rep = 0; rep < 6; ++rep)
    periodic.insert(periodic.end(), seed.begin(), seed.end());

  const rvec metric = delayed_autocorrelation(periodic, lag);
  ASSERT_FALSE(metric.empty());
  for (std::size_t i = 0; i < metric.size(); ++i) EXPECT_NEAR(metric[i], 1.0, 1e-9);

  const cvec noise = random_sequence(96, 10);
  const rvec noise_metric = delayed_autocorrelation(noise, lag);
  double mean = 0.0;
  for (double v : noise_metric) mean += v;
  mean /= static_cast<double>(noise_metric.size());
  EXPECT_LT(mean, 0.6);
}

}  // namespace
}  // namespace backfi::dsp
