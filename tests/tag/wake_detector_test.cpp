#include "tag/wake_detector.h"

#include <gtest/gtest.h>

#include "channel/awgn.h"
#include "dsp/rng.h"
#include "phy/prbs.h"

namespace backfi::tag {
namespace {

/// Build the reader's OOK wake waveform: 1 us on/off pulses per preamble bit.
cvec ook_waveform(const phy::bitvec& preamble, std::size_t samples_per_bit,
                  double amplitude) {
  cvec out;
  out.reserve(preamble.size() * samples_per_bit);
  for (std::uint8_t bit : preamble)
    out.insert(out.end(), samples_per_bit, bit ? cplx{amplitude, 0.0} : cplx{0.0, 0.0});
  return out;
}

TEST(WakeDetectorTest, EnvelopeBitsRecoverOokPattern) {
  const phy::bitvec preamble = phy::wake_preamble(3);
  const cvec wave = ook_waveform(preamble, 20, 1.0);
  // The comparator recovers every OOK bit at the first alignment: the
  // tolerated mismatch goes unused.
  const wake_result result = detect_wake(wave, preamble, -30.0);
  ASSERT_TRUE(result.woke);
  EXPECT_EQ(result.bit_errors, 0u);
  EXPECT_EQ(result.preamble_end_sample, wave.size());
}

TEST(WakeDetectorTest, DetectsCleanPreamble) {
  const phy::bitvec preamble = phy::wake_preamble(7);
  cvec wave(200, cplx{0.0, 0.0});  // leading idle
  const cvec pulses = ook_waveform(preamble, 20, 1.0);
  wave.insert(wave.end(), pulses.begin(), pulses.end());

  const wake_result result = detect_wake(wave, preamble, -30.0);
  ASSERT_TRUE(result.woke);
  EXPECT_EQ(result.preamble_end_sample, wave.size());
  EXPECT_EQ(result.bit_errors, 0u);
}

TEST(WakeDetectorTest, DetectsNoisyPreamble) {
  dsp::rng gen(1);
  const phy::bitvec preamble = phy::wake_preamble(11);
  cvec wave(100, cplx{0.0, 0.0});
  const cvec pulses = ook_waveform(preamble, 20, 1.0);
  wave.insert(wave.end(), pulses.begin(), pulses.end());
  channel::add_awgn(wave, 0.02, gen);  // ~17 dB SNR on the pulses

  const wake_result result = detect_wake(wave, preamble, -30.0);
  EXPECT_TRUE(result.woke);
}

TEST(WakeDetectorTest, RespectsSensitivityGate) {
  const phy::bitvec preamble = phy::wake_preamble(5);
  const cvec wave = ook_waveform(preamble, 20, 1.0);
  // Incident power below the -50 dBm sensitivity: the detector never wakes.
  const wake_result result = detect_wake(wave, preamble, -60.0);
  EXPECT_FALSE(result.woke);
}

TEST(WakeDetectorTest, DoesNotWakeOnWrongPreamble) {
  const phy::bitvec mine = phy::wake_preamble(2);
  const phy::bitvec other = phy::wake_preamble(9);
  ASSERT_NE(mine, other);
  const cvec wave = ook_waveform(other, 20, 1.0);
  const wake_result result = detect_wake(wave, mine, -30.0);
  EXPECT_FALSE(result.woke);
}

TEST(WakeDetectorTest, DoesNotWakeOnNoise) {
  dsp::rng gen(2);
  cvec noise(2000);
  for (auto& v : noise) v = 0.3 * gen.complex_gaussian();
  const phy::bitvec preamble = phy::wake_preamble(4);
  const wake_result result = detect_wake(noise, preamble, -30.0);
  EXPECT_FALSE(result.woke);
}

TEST(WakeDetectorTest, ToleratesOneBitError) {
  const phy::bitvec preamble = phy::wake_preamble(6);
  phy::bitvec corrupted = preamble;
  corrupted[8] ^= 1u;
  const cvec wave = ook_waveform(corrupted, 20, 1.0);
  const wake_result result = detect_wake(wave, preamble, -30.0);
  ASSERT_TRUE(result.woke);
  EXPECT_EQ(result.bit_errors, 1u);
}

}  // namespace
}  // namespace backfi::tag
