#include "phy/scrambler.h"

#include <algorithm>
#include <array>
#include <cassert>

namespace backfi::phy {

namespace {

std::uint8_t advance(std::uint8_t& state) {
  // Feedback = x^7 xor x^4 of the 7-bit shift register.
  const std::uint8_t fb =
      static_cast<std::uint8_t>(((state >> 6) ^ (state >> 3)) & 1u);
  state = static_cast<std::uint8_t>(((state << 1) | fb) & 0x7Fu);
  return fb;
}

// The x^7 + x^4 + 1 LFSR is maximal-length: every nonzero seed walks the same
// 127-state cycle, so its keystream is exactly 127-periodic. Precomputing one
// period per seed turns the per-bit register update into a table XOR; the
// emitted bits are the ones advance() would produce, in the same order.
const std::array<std::uint8_t, 127>& keystream_for(std::uint8_t seed) {
  static const std::array<std::array<std::uint8_t, 127>, 128> all = [] {
    std::array<std::array<std::uint8_t, 127>, 128> k{};
    for (int s = 1; s < 128; ++s) {
      std::uint8_t state = static_cast<std::uint8_t>(s);
      for (int i = 0; i < 127; ++i) k[s][i] = advance(state);
    }
    return k;
  }();
  return all[seed & 0x7Fu];
}

}  // namespace

bitvec scramble(std::span<const std::uint8_t> bits, std::uint8_t seed) {
  assert((seed & 0x7Fu) != 0 && "scrambler seed must be nonzero");
  const auto& key = keystream_for(seed);
  bitvec out(bits.size());
  std::size_t i = 0;
  while (i < bits.size()) {
    const std::size_t n = std::min<std::size_t>(127, bits.size() - i);
    for (std::size_t k = 0; k < n; ++k)
      out[i + k] = static_cast<std::uint8_t>((bits[i + k] ^ key[k]) & 1u);
    i += n;
  }
  return out;
}

bitvec scrambler_sequence(std::uint8_t seed, std::size_t n_bits) {
  const bitvec zeros(n_bits, 0);
  return scramble(zeros, seed);
}

const std::array<std::uint8_t, 127>& scrambler_keystream_bytes(std::uint8_t seed) {
  static const std::array<std::array<std::uint8_t, 127>, 128> all = [] {
    std::array<std::array<std::uint8_t, 127>, 128> packed{};
    for (int s = 0; s < 128; ++s) {
      const auto& key = keystream_for(static_cast<std::uint8_t>(s));
      for (std::size_t i = 0; i < 8 * 127; ++i)
        packed[s][i / 8] |= static_cast<std::uint8_t>(key[i % 127] << (i % 8));
    }
    return packed;
  }();
  return all[seed & 0x7Fu];
}

}  // namespace backfi::phy
