// 802.11 data scrambler (x^7 + x^4 + 1), self-synchronizing form used by
// the OFDM PHY. Scrambling and descrambling are the same operation.
#pragma once

#include <array>
#include <cstdint>

#include "phy/bits.h"

namespace backfi::phy {

/// Scramble (or descramble) bits with the 802.11 frame-synchronous
/// scrambler initialized to `seed` (7-bit nonzero state).
bitvec scramble(std::span<const std::uint8_t> bits, std::uint8_t seed = 0x5D);

/// The raw 127-bit scrambler sequence for a given seed (for test vectors).
bitvec scrambler_sequence(std::uint8_t seed, std::size_t n_bits);

/// One period of the keystream for `seed`, packed LSB-first: bit t of byte
/// j is keystream bit (8j + t) mod 127. Eight periods fill exactly 127
/// bytes, so XOR-ing byte i of an LSB-first packed bit stream with element
/// i % 127 scrambles it exactly as scramble() does bit by bit.
const std::array<std::uint8_t, 127>& scrambler_keystream_bytes(std::uint8_t seed);

}  // namespace backfi::phy
