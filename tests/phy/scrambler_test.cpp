#include "phy/scrambler.h"

#include <gtest/gtest.h>

#include "dsp/rng.h"

namespace backfi::phy {
namespace {

TEST(ScramblerTest, SelfInverse) {
  dsp::rng gen(1);
  const bitvec data = gen.random_bits(1000);
  const bitvec scrambled = scramble(data, 0x5D);
  EXPECT_EQ(scramble(scrambled, 0x5D), data);
}

TEST(ScramblerTest, PackedKeystreamScramblesBytesLikeBits) {
  // XOR with the packed keystream (byte i -> key byte i % 127) equals
  // scramble() on the LSB-first unpacked bits, across several periods.
  dsp::rng gen(3);
  for (const std::uint8_t seed : {std::uint8_t{0x5D}, std::uint8_t{0x7F},
                                  std::uint8_t{0x01}}) {
    std::vector<std::uint8_t> bytes(400);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(gen.uniform_int(256));
    const bitvec scrambled = scramble(bytes_to_bits(bytes), seed);
    const auto& key = scrambler_keystream_bytes(seed);
    for (std::size_t i = 0; i < bytes.size(); ++i) bytes[i] ^= key[i % key.size()];
    EXPECT_EQ(bytes_to_bits(bytes), scrambled) << int{seed};
  }
}

TEST(ScramblerTest, Has127BitPeriod) {
  const bitvec seq = scrambler_sequence(0x7F, 3 * 127);
  for (std::size_t i = 0; i + 127 < seq.size(); ++i)
    ASSERT_EQ(seq[i], seq[i + 127]) << "period mismatch at " << i;
}

TEST(ScramblerTest, KnownStandardSequencePrefix) {
  // IEEE 802.11-2012 clause 18.3.5.5: all-ones seed produces the sequence
  // beginning 0000 1110 1111 0010 ...
  const bitvec seq = scrambler_sequence(0x7F, 16);
  const bitvec expected = {0, 0, 0, 0, 1, 1, 1, 0, 1, 1, 1, 1, 0, 0, 1, 0};
  EXPECT_EQ(seq, expected);
}

TEST(ScramblerTest, DifferentSeedsGiveShiftedSequences) {
  const bitvec a = scrambler_sequence(0x5D, 64);
  const bitvec b = scrambler_sequence(0x3A, 64);
  EXPECT_NE(a, b);
}

TEST(ScramblerTest, ScramblingRandomizesConstantInput) {
  const bitvec zeros(508, 0);
  const bitvec out = scramble(zeros, 0x5D);
  int ones = 0;
  for (auto b : out) ones += b;
  // ~50% ones expected from the m-sequence.
  EXPECT_GT(ones, 200);
  EXPECT_LT(ones, 308);
}

}  // namespace
}  // namespace backfi::phy
