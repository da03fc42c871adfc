// Bit-vector utilities shared by the WiFi PHY and the tag encoder.
//
// Bits are stored one per byte (0 or 1) in a std::vector<uint8_t>; the
// simulator trades memory for simple indexed access in codecs.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace backfi::phy {

using bitvec = std::vector<std::uint8_t>;

/// Unpack bytes to bits, LSB-first per byte (802.11 bit order).
bitvec bytes_to_bits(std::span<const std::uint8_t> bytes);

/// Pack bits (LSB-first per byte) back to bytes; size must be a multiple of 8.
std::vector<std::uint8_t> bits_to_bytes(std::span<const std::uint8_t> bits);

/// Unpack a UTF-8/ASCII string into bits (LSB-first per byte).
bitvec string_to_bits(const std::string& text);

/// Number of positions where a and b differ (up to the shorter length),
/// plus the length difference counted as errors.
std::size_t hamming_distance(std::span<const std::uint8_t> a,
                             std::span<const std::uint8_t> b);

/// Read `count` bits starting at `offset` as an unsigned integer, MSB first.
/// Throws std::invalid_argument for count > 32 or a field past the end.
std::uint32_t bits_to_uint(std::span<const std::uint8_t> bits, std::size_t offset,
                           std::size_t count);

/// Append `count` bits of `value` (MSB first) to `out`. Throws
/// std::invalid_argument for count > 32.
void append_uint(bitvec& out, std::uint32_t value, std::size_t count);

}  // namespace backfi::phy
