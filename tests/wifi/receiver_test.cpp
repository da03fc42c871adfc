#include "wifi/receiver.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "dsp/fir.h"
#include "dsp/math_util.h"
#include "dsp/rng.h"
#include "wifi/ofdm.h"
#include "wifi/ppdu.h"
#include "wifi/preamble.h"

namespace backfi::wifi {
namespace {

std::vector<std::uint8_t> random_psdu(std::size_t n, std::uint64_t seed) {
  dsp::rng gen(seed);
  std::vector<std::uint8_t> psdu(n);
  for (auto& b : psdu) b = static_cast<std::uint8_t>(gen.uniform_int(256));
  return psdu;
}

cvec with_padding_and_noise(const cvec& signal, double noise_sigma,
                            std::size_t lead, std::uint64_t seed) {
  dsp::rng gen(seed);
  cvec out(lead, cplx{0.0, 0.0});
  out.insert(out.end(), signal.begin(), signal.end());
  out.insert(out.end(), 100, cplx{0.0, 0.0});
  if (noise_sigma > 0.0)
    for (auto& v : out) v += noise_sigma * gen.complex_gaussian();
  return out;
}

class ReceiverRateTest : public ::testing::TestWithParam<wifi_rate> {};

TEST_P(ReceiverRateTest, CleanLoopbackDecodesExactly) {
  const auto psdu = random_psdu(200, 1);
  const tx_ppdu ppdu = transmit(psdu, {.rate = GetParam()});
  const cvec rx_samples = with_padding_and_noise(ppdu.samples, 1e-5, 50, 2);

  const rx_result result = receive(rx_samples);
  ASSERT_TRUE(result.detected);
  ASSERT_TRUE(result.synchronized);
  ASSERT_TRUE(result.signal_valid);
  EXPECT_EQ(result.rate, GetParam());
  EXPECT_EQ(result.length_bytes, psdu.size());
  ASSERT_TRUE(result.psdu_complete);
  EXPECT_EQ(result.psdu, psdu);
  EXPECT_GT(result.snr_db, 40.0);
  EXPECT_LT(result.evm_rms, 0.05);
}

TEST_P(ReceiverRateTest, ModerateNoiseLoopback) {
  // 20 dB SNR: all rates should decode a short packet.
  const auto psdu = random_psdu(100, 3);
  const tx_ppdu ppdu = transmit(psdu, {.rate = GetParam()});
  const double sigma = dsp::db_to_amplitude(-20.0);
  const cvec rx_samples = with_padding_and_noise(ppdu.samples, sigma, 200, 4);

  const rx_result result = receive(rx_samples);
  ASSERT_TRUE(result.psdu_complete);
  EXPECT_EQ(result.psdu, psdu);
  EXPECT_NEAR(result.snr_db, 20.0, 3.0);
}

TEST_P(ReceiverRateTest, MultipathChannelLoopback) {
  // Two-tap channel with 25 dB SNR; the one-tap equalizer handles it since
  // the delay spread is inside the cyclic prefix.
  const auto psdu = random_psdu(150, 5);
  const tx_ppdu ppdu = transmit(psdu, {.rate = GetParam()});
  const cvec taps = {{0.9, 0.1}, {0.0, 0.0}, {0.25, -0.15}};
  const cvec faded = dsp::convolve_same(ppdu.samples, taps);
  const double sigma = dsp::db_to_amplitude(-25.0);
  const cvec rx_samples = with_padding_and_noise(faded, sigma, 120, 6);

  const rx_result result = receive(rx_samples);
  ASSERT_TRUE(result.psdu_complete) << params_for(GetParam()).name;
  EXPECT_EQ(result.psdu, psdu);
}

INSTANTIATE_TEST_SUITE_P(AllRates, ReceiverRateTest,
                         ::testing::Values(wifi_rate::mbps6, wifi_rate::mbps9,
                                           wifi_rate::mbps12, wifi_rate::mbps18,
                                           wifi_rate::mbps24, wifi_rate::mbps36,
                                           wifi_rate::mbps48, wifi_rate::mbps54));

TEST(ReceiverTest, NoPacketInPureNoise) {
  dsp::rng gen(7);
  cvec noise(4000);
  for (auto& v : noise) v = gen.complex_gaussian();
  const rx_result result = receive(noise);
  EXPECT_FALSE(result.detected);
}

TEST(ReceiverTest, CfoIsEstimatedAndCorrected) {
  const auto psdu = random_psdu(120, 8);
  const tx_ppdu ppdu = transmit(psdu, {.rate = wifi_rate::mbps24});
  // Apply ~80 kHz CFO (about half a subcarrier spacing is the tolerance;
  // 802.11 allows +-40 ppm total which is ~200 kHz at 2.4 GHz, but coarse
  // correction from the STF handles the bulk).
  const double cfo_hz = 80e3;
  const double omega = two_pi * cfo_hz / sample_rate_hz;
  cvec shifted = ppdu.samples;
  for (std::size_t n = 0; n < shifted.size(); ++n)
    shifted[n] *= dsp::phasor(omega * static_cast<double>(n));
  const cvec rx_samples = with_padding_and_noise(shifted, 1e-4, 80, 9);

  const rx_result result = receive(rx_samples);
  ASSERT_TRUE(result.psdu_complete);
  EXPECT_EQ(result.psdu, psdu);
  EXPECT_NEAR(result.cfo_hz, cfo_hz, 5e3);
}

TEST(ReceiverTest, TruncatedPacketReportsIncomplete) {
  const auto psdu = random_psdu(400, 10);
  const tx_ppdu ppdu = transmit(psdu, {.rate = wifi_rate::mbps12});
  const cvec truncated(ppdu.samples.begin(),
                       ppdu.samples.begin() + ppdu.samples.size() / 2);
  const cvec rx_samples = with_padding_and_noise(truncated, 1e-4, 30, 11);

  const rx_result result = receive(rx_samples);
  EXPECT_TRUE(result.detected);
  EXPECT_TRUE(result.signal_valid);
  EXPECT_FALSE(result.psdu_complete);
}

// The two LTF symbols must lie inside the capture; a start too close to
// the end (or past it) used to read beyond the buffer in release builds.
TEST(ReceiverTest, EstimateChannelRejectsShortCapture) {
  const cvec preamble = legacy_preamble();
  const std::size_t ltf_start = stf_samples + 32;  // after the LTF guard
  EXPECT_NO_THROW(estimate_channel(preamble, ltf_start));
  const cvec short_capture(preamble.begin(),
                           preamble.begin() + ltf_start + 2 * fft_size - 1);
  EXPECT_THROW(estimate_channel(short_capture, ltf_start),
               std::invalid_argument);
  EXPECT_THROW(estimate_channel(preamble, preamble.size() + 1),
               std::invalid_argument);
  EXPECT_THROW(estimate_channel(preamble, SIZE_MAX - 64),
               std::invalid_argument);
}

TEST(ReceiverTest, SnrEstimateTracksInjectedSnr) {
  const auto psdu = random_psdu(80, 12);
  const tx_ppdu ppdu = transmit(psdu, {.rate = wifi_rate::mbps6});
  for (double snr_db : {10.0, 20.0, 30.0}) {
    const double sigma = dsp::db_to_amplitude(-snr_db / 2.0 * 2.0 / 2.0) *
                         std::pow(10.0, -snr_db / 20.0) /
                         std::pow(10.0, -snr_db / 20.0);  // keep explicit below
    (void)sigma;
    const double noise_amp = std::pow(10.0, -snr_db / 20.0);
    const cvec rx_samples = with_padding_and_noise(ppdu.samples, noise_amp, 60,
                                                   static_cast<std::uint64_t>(snr_db));
    const rx_result result = receive(rx_samples);
    ASSERT_TRUE(result.detected);
    EXPECT_NEAR(result.snr_db, snr_db, 3.0) << snr_db;
  }
}

TEST(ReceiverTest, EvmGrowsWithNoise) {
  const auto psdu = random_psdu(100, 13);
  const tx_ppdu ppdu = transmit(psdu, {.rate = wifi_rate::mbps24});
  double prev_evm = 0.0;
  for (double snr_db : {35.0, 25.0, 15.0}) {
    const double noise_amp = std::pow(10.0, -snr_db / 20.0);
    const cvec rx_samples = with_padding_and_noise(ppdu.samples, noise_amp, 40,
                                                   static_cast<std::uint64_t>(snr_db) + 77);
    const rx_result result = receive(rx_samples);
    ASSERT_TRUE(result.synchronized);
    EXPECT_GT(result.evm_rms, prev_evm);
    prev_evm = result.evm_rms;
  }
}

TEST(ReceiverTest, DetectsPacketAfterLongIdlePeriod) {
  const auto psdu = random_psdu(60, 14);
  const tx_ppdu ppdu = transmit(psdu, {});
  const cvec rx_samples = with_padding_and_noise(ppdu.samples, 1e-3, 5000, 15);
  const rx_result result = receive(rx_samples);
  ASSERT_TRUE(result.psdu_complete);
  EXPECT_EQ(result.psdu, psdu);
  EXPECT_NEAR(static_cast<double>(result.ltf_start), 5000.0 + 192.0, 2.0);
}

}  // namespace
}  // namespace backfi::wifi
