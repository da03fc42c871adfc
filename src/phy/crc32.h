// IEEE 802.3/802.11 CRC-32 over bits or bytes, used as the frame check
// sequence for both WiFi PPDUs and BackFi tag packets.
#pragma once

#include <cstdint>
#include <span>

#include "phy/bits.h"

namespace backfi::phy {

/// Bits append_crc32 adds to a frame.
inline constexpr std::size_t crc32_width = 32;

/// CRC-32 (reflected, poly 0xEDB88320, init/final 0xFFFFFFFF) over a bit
/// sequence (LSB-first byte packing, any bit length).
std::uint32_t crc32_bits(std::span<const std::uint8_t> bits);

/// Append the 32 CRC bits (LSB-first, matching 802.11 FCS order) to `bits`.
void append_crc32(bitvec& bits);

/// True if `bits` ends with a valid CRC-32 of its prefix.
bool check_crc32(std::span<const std::uint8_t> bits);

}  // namespace backfi::phy
