#include "wifi/preamble.h"

#include <gtest/gtest.h>

#include "dsp/correlation.h"
#include "dsp/vec_ops.h"
#include "wifi/ofdm.h"

namespace backfi::wifi {
namespace {

TEST(PreambleTest, FieldLengths) {
  EXPECT_EQ(short_training_field().size(), stf_samples);
  EXPECT_EQ(long_training_field().size(), ltf_samples);
  EXPECT_EQ(legacy_preamble().size(), preamble_samples);
  EXPECT_EQ(ltf_time_symbol().size(), fft_size);
}

TEST(PreambleTest, StfIs16SamplePeriodic) {
  const cvec& stf = short_training_field();
  for (std::size_t i = 0; i + 16 < stf.size(); ++i)
    EXPECT_NEAR(std::abs(stf[i] - stf[i + 16]), 0.0, 1e-12) << i;
}

TEST(PreambleTest, LtfGuardIsCopyOfSymbolTail) {
  const cvec& ltf = long_training_field();
  // Guard (first 32) == last 32 samples of the 64-sample period.
  for (std::size_t i = 0; i < 32; ++i)
    EXPECT_NEAR(std::abs(ltf[i] - ltf[i + 64]), 0.0, 1e-12) << i;
  // The two periods are identical.
  for (std::size_t i = 0; i < 64; ++i)
    EXPECT_NEAR(std::abs(ltf[32 + i] - ltf[96 + i]), 0.0, 1e-12) << i;
}

TEST(PreambleTest, MeanPowerNearUnity) {
  EXPECT_NEAR(dsp::mean_power(short_training_field()), 1.0, 0.05);
  EXPECT_NEAR(dsp::mean_power(long_training_field()), 1.0, 0.05);
}

TEST(PreambleTest, LtfSequenceValuesAreBipolarWithDcNull) {
  EXPECT_DOUBLE_EQ(ltf_value(0), 0.0);
  int nonzero = 0;
  for (int k = -26; k <= 26; ++k) {
    const double v = ltf_value(k);
    if (k == 0) continue;
    EXPECT_NEAR(std::abs(v), 1.0, 1e-15) << k;
    ++nonzero;
  }
  EXPECT_EQ(nonzero, 52);
}

TEST(PreambleTest, LtfValueRejectsOutOfRange) {
  EXPECT_EQ(ltf_value(-26), 1.0);
  EXPECT_THROW(ltf_value(27), std::invalid_argument);
  EXPECT_THROW(ltf_value(-27), std::invalid_argument);
  EXPECT_THROW(ltf_value(-1000), std::invalid_argument);
}

TEST(PreambleTest, StfAutocorrelationMetricIsHigh) {
  const cvec& stf = short_training_field();
  const dsp::rvec metric = dsp::delayed_autocorrelation(stf, 16);
  for (double m : metric) EXPECT_GT(m, 0.99);
}

TEST(PreambleTest, LtfSymbolSelfCorrelationSharp) {
  const cvec pre = legacy_preamble();
  const dsp::rvec metric = dsp::normalized_correlation(pre, ltf_time_symbol());
  // Peaks at the two LTF symbol starts: 160+32 = 192 and 256.
  EXPECT_GT(metric[192], 0.99);
  EXPECT_GT(metric[256], 0.99);
  // STF region should not correlate as strongly.
  for (std::size_t i = 0; i < 100; ++i) EXPECT_LT(metric[i], 0.9) << i;
}

}  // namespace
}  // namespace backfi::wifi
