#include "phy/prbs.h"

#include <stdexcept>

namespace backfi::phy {

lfsr::lfsr(std::uint32_t taps, std::uint32_t state) : taps_(taps), state_(state) {
  // A zero register never leaves zero: it would emit only zeros.
  if (state_ == 0)
    throw std::invalid_argument("phy::lfsr: state must be nonzero");
}

std::uint8_t lfsr::next_bit() {
  const std::uint8_t out = static_cast<std::uint8_t>(state_ & 1u);
  state_ >>= 1;
  if (out) state_ ^= taps_;
  return out;
}

bitvec lfsr::bits(std::size_t n) {
  bitvec out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = next_bit();
  return out;
}

namespace {

// x^15 + x^14 + 1 maximal-length polynomial (Galois form mask).
constexpr std::uint32_t kPn15Taps = 0x6000u;

std::uint32_t nonzero_state(std::uint32_t seed) {
  const std::uint32_t s = (seed * 2654435761u + 0x5bd1u) & 0x7FFFu;
  return s == 0 ? 0x1u : s;
}

}  // namespace

void wake_preamble_into(std::uint32_t tag_id, std::size_t n_bits, bitvec& out) {
  lfsr gen(kPn15Taps, nonzero_state(tag_id));
  out.resize(n_bits);
  for (std::uint8_t& bit : out) bit = gen.next_bit();
  // Guarantee at least one pulse so an OOK preamble always carries energy,
  // and start with a pulse to give the envelope detector a peak reference.
  if (n_bits > 0) out[0] = 1;
}

bitvec sync_sequence(std::uint32_t tag_id, std::size_t n_bits) {
  lfsr gen(kPn15Taps, nonzero_state(tag_id ^ 0x5A5Au));
  return gen.bits(n_bits);
}

}  // namespace backfi::phy
