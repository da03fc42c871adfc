#include "tag/downlink.h"

#include <gtest/gtest.h>

#include "channel/awgn.h"
#include "dsp/rng.h"

namespace backfi::tag {
namespace {

TEST(DownlinkTest, RateMatchesPaper) {
  // 50 us bits -> 20 Kbps, the paper's quoted downlink throughput.
  EXPECT_DOUBLE_EQ(downlink_rate_bps(), 20e3);
}

TEST(DownlinkTest, CleanRoundTrip) {
  dsp::rng gen(1);
  const phy::bitvec bits = gen.random_bits(64);
  const cvec wave = encode_downlink(bits);
  EXPECT_EQ(decode_downlink(wave), bits);
}

TEST(DownlinkTest, EncodingIsManchesterBalanced) {
  // Every bit spends exactly half its period "on", so the mean power is
  // independent of the data.
  const phy::bitvec ones(16, 1);
  const phy::bitvec zeros(16, 0);
  const cvec w1 = encode_downlink(ones);
  const cvec w0 = encode_downlink(zeros);
  double p1 = 0.0, p0 = 0.0;
  for (const auto& v : w1) p1 += std::norm(v);
  for (const auto& v : w0) p0 += std::norm(v);
  EXPECT_NEAR(p1, p0, 1e-9);
}

TEST(DownlinkTest, SurvivesChannelScalingAndPhase) {
  dsp::rng gen(2);
  const phy::bitvec bits = gen.random_bits(40);
  cvec wave = encode_downlink(bits);
  // Arbitrary complex channel coefficient (flat fading).
  for (auto& v : wave) v *= cplx{3e-4, -2e-4};
  EXPECT_EQ(decode_downlink(wave), bits);
}

TEST(DownlinkTest, SurvivesModerateNoise) {
  dsp::rng gen(3);
  const phy::bitvec bits = gen.random_bits(100);
  cvec wave = encode_downlink(bits);
  channel::add_awgn(wave, 0.05, gen);  // ~13 dB SNR on the "on" halves
  const phy::bitvec decoded = decode_downlink(wave);
  EXPECT_EQ(phy::hamming_distance(decoded, bits), 0u);
}

TEST(DownlinkTest, PartialBitPeriodIgnored) {
  const phy::bitvec bits = {1, 0, 1};
  cvec wave = encode_downlink(bits);
  wave.resize(wave.size() - 100);  // truncate into the last bit
  const phy::bitvec decoded = decode_downlink(wave);
  EXPECT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0], 1);
  EXPECT_EQ(decoded[1], 0);
}

TEST(DownlinkTest, EmptyInput) {
  EXPECT_TRUE(encode_downlink({}).empty());
  EXPECT_TRUE(decode_downlink(cvec{}).empty());
}

}  // namespace
}  // namespace backfi::tag
