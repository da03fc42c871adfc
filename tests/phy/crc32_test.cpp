#include "phy/crc32.h"

#include <gtest/gtest.h>

#include <string>

namespace backfi::phy {
namespace {

std::span<const std::uint8_t> as_bytes(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

/// Reference: the table-driven bytewise CRC-32 of the same polynomial.
std::uint32_t crc32_bytes(std::span<const std::uint8_t> bytes) {
  std::uint32_t table[256];
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    table[i] = c;
  }
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const std::uint8_t byte : bytes)
    crc = table[(crc ^ byte) & 0xFFu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, KnownVectorCheckString) {
  // The canonical CRC-32 check value: crc32("123456789") = 0xCBF43926.
  EXPECT_EQ(crc32_bits(bytes_to_bits(as_bytes("123456789"))), 0xCBF43926u);
}

TEST(Crc32Test, EmptyInput) {
  EXPECT_EQ(crc32_bits({}), 0x00000000u);
}

TEST(Crc32Test, BitwiseMatchesBytewise) {
  const std::string msg = "backscatter";
  const bitvec bits = bytes_to_bits(as_bytes(msg));
  EXPECT_EQ(crc32_bits(bits), crc32_bytes(as_bytes(msg)));
}

TEST(Crc32Test, AppendThenCheckPasses) {
  bitvec bits = string_to_bits("sensor data payload");
  append_crc32(bits);
  EXPECT_TRUE(check_crc32(bits));
}

TEST(Crc32Test, SingleBitFlipFailsCheck) {
  bitvec bits = string_to_bits("sensor data payload");
  append_crc32(bits);
  for (std::size_t flip : {std::size_t{0}, bits.size() / 2, bits.size() - 1}) {
    bitvec corrupted = bits;
    corrupted[flip] ^= 1u;
    EXPECT_FALSE(check_crc32(corrupted)) << "flip at " << flip;
  }
}

TEST(Crc32Test, TooShortForCrcFails) {
  const bitvec bits(16, 1);
  EXPECT_FALSE(check_crc32(bits));
}

TEST(Crc32Test, NonByteAlignedPayloadSupported) {
  bitvec bits = {1, 0, 1, 1, 0};  // 5 bits
  append_crc32(bits);
  EXPECT_TRUE(check_crc32(bits));
  bits[2] ^= 1u;
  EXPECT_FALSE(check_crc32(bits));
}

}  // namespace
}  // namespace backfi::phy
