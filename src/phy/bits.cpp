#include "phy/bits.h"

#include <stdexcept>

namespace backfi::phy {

bitvec bytes_to_bits(std::span<const std::uint8_t> bytes) {
  bitvec bits;
  bits.reserve(bytes.size() * 8);
  for (std::uint8_t byte : bytes)
    for (int b = 0; b < 8; ++b) bits.push_back((byte >> b) & 1u);
  return bits;
}

std::vector<std::uint8_t> bits_to_bytes(std::span<const std::uint8_t> bits) {
  if (bits.size() % 8 != 0)
    throw std::invalid_argument("bits_to_bytes: size not a multiple of 8");
  std::vector<std::uint8_t> bytes(bits.size() / 8, 0);
  for (std::size_t i = 0; i < bits.size(); ++i)
    bytes[i / 8] |= static_cast<std::uint8_t>((bits[i] & 1u) << (i % 8));
  return bytes;
}

bitvec string_to_bits(const std::string& text) {
  return bytes_to_bits(
      std::span(reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
}

std::size_t hamming_distance(std::span<const std::uint8_t> a,
                             std::span<const std::uint8_t> b) {
  const std::size_t common = std::min(a.size(), b.size());
  std::size_t errors = std::max(a.size(), b.size()) - common;
  for (std::size_t i = 0; i < common; ++i)
    if ((a[i] & 1u) != (b[i] & 1u)) ++errors;
  return errors;
}

std::uint32_t bits_to_uint(std::span<const std::uint8_t> bits, std::size_t offset,
                           std::size_t count) {
  // Checked without forming offset + count, which could wrap.
  if (count > 32)
    throw std::invalid_argument("bits_to_uint: count exceeds 32 bits");
  if (offset > bits.size() || count > bits.size() - offset)
    throw std::invalid_argument("bits_to_uint: field runs past the bits");
  std::uint32_t value = 0;
  for (std::size_t i = 0; i < count; ++i)
    value = (value << 1) | (bits[offset + i] & 1u);
  return value;
}

void append_uint(bitvec& out, std::uint32_t value, std::size_t count) {
  if (count > 32)
    throw std::invalid_argument("append_uint: count exceeds 32 bits");
  for (std::size_t i = count; i-- > 0;)
    out.push_back(static_cast<std::uint8_t>((value >> i) & 1u));
}

}  // namespace backfi::phy
