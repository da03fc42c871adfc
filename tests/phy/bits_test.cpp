#include "phy/bits.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

namespace backfi::phy {
namespace {

TEST(BitsTest, BytesToBitsLsbFirst) {
  const std::uint8_t bytes[] = {0x01, 0x80};
  const bitvec bits = bytes_to_bits(bytes);
  ASSERT_EQ(bits.size(), 16u);
  EXPECT_EQ(bits[0], 1);  // LSB of 0x01
  for (int i = 1; i < 8; ++i) EXPECT_EQ(bits[i], 0);
  for (int i = 8; i < 15; ++i) EXPECT_EQ(bits[i], 0);
  EXPECT_EQ(bits[15], 1);  // MSB of 0x80
}

TEST(BitsTest, RoundTripBytes) {
  const std::vector<std::uint8_t> bytes = {0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x7F};
  EXPECT_EQ(bits_to_bytes(bytes_to_bits(bytes)), bytes);
}

TEST(BitsTest, BitsToBytesRejectsPartialByte) {
  const bitvec bits(7, 1);
  EXPECT_THROW(bits_to_bytes(bits), std::invalid_argument);
}

TEST(BitsTest, StringRoundTrip) {
  const std::string text = "BackFi tag #1";
  const auto bytes = bits_to_bytes(string_to_bits(text));
  EXPECT_EQ(std::string(bytes.begin(), bytes.end()), text);
}

TEST(BitsTest, HammingDistanceCountsDifferences) {
  const bitvec a = {0, 1, 0, 1};
  const bitvec b = {0, 1, 1, 0};
  EXPECT_EQ(hamming_distance(a, b), 2u);
}

TEST(BitsTest, HammingDistanceCountsLengthMismatch) {
  const bitvec a = {0, 1};
  const bitvec b = {0, 1, 1, 1};
  EXPECT_EQ(hamming_distance(a, b), 2u);
}

TEST(BitsTest, UintRoundTripMsbFirst) {
  bitvec bits;
  append_uint(bits, 0xA5, 8);
  EXPECT_EQ(bits_to_uint(bits, 0, 8), 0xA5u);
  append_uint(bits, 0x3, 2);
  EXPECT_EQ(bits_to_uint(bits, 8, 2), 0x3u);
  EXPECT_EQ(bits.size(), 10u);
  // MSB first: 0xA5 = 10100101
  EXPECT_EQ(bits[0], 1);
  EXPECT_EQ(bits[1], 0);
  EXPECT_EQ(bits[7], 1);
}

TEST(BitsTest, RejectsOutOfRangeFields) {
  bitvec bits;
  EXPECT_THROW(append_uint(bits, 1, 33), std::invalid_argument);
  EXPECT_TRUE(bits.empty());
  append_uint(bits, 0xFFFFFFFFu, 32);
  EXPECT_EQ(bits_to_uint(bits, 0, 32), 0xFFFFFFFFu);
  EXPECT_THROW(bits_to_uint(bits, 0, 33), std::invalid_argument);
  EXPECT_THROW(bits_to_uint(bits, 1, 32), std::invalid_argument);
  EXPECT_THROW(bits_to_uint(bits, 33, 0), std::invalid_argument);
  // offset + count wraps to 7 here; the check must not form the sum.
  EXPECT_THROW(bits_to_uint(bits, SIZE_MAX, 8), std::invalid_argument);
  EXPECT_EQ(bits_to_uint(bits, 32, 0), 0u);  // empty field at the end
}

}  // namespace
}  // namespace backfi::phy
