#include "phy/crc32.h"

namespace backfi::phy {

namespace {

constexpr std::uint32_t kPoly = 0xEDB88320u;

}  // namespace

std::uint32_t crc32_bits(std::span<const std::uint8_t> bits) {
  // Bitwise reflected CRC so arbitrary (non byte-aligned) lengths work.
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::uint8_t bit : bits) {
    const std::uint32_t in = (crc ^ (bit & 1u)) & 1u;
    crc >>= 1;
    if (in) crc ^= kPoly;
  }
  return crc ^ 0xFFFFFFFFu;
}

void append_crc32(bitvec& bits) {
  const std::uint32_t crc = crc32_bits(bits);
  for (int i = 0; i < 32; ++i)
    bits.push_back(static_cast<std::uint8_t>((crc >> i) & 1u));
}

bool check_crc32(std::span<const std::uint8_t> bits) {
  if (bits.size() < 32) return false;
  const auto payload = bits.first(bits.size() - 32);
  const std::uint32_t expected = crc32_bits(payload);
  for (int i = 0; i < 32; ++i)
    if (((expected >> i) & 1u) != (bits[bits.size() - 32 + i] & 1u)) return false;
  return true;
}

}  // namespace backfi::phy
