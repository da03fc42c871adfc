#include "tag/downlink.h"

#include <cmath>

namespace backfi::tag {

namespace {

// 50 us Manchester bits give the paper's 20 Kbps; the "on" half-bit is sent
// at the AP's unit transmit reference.
constexpr std::size_t bit_period_us = 50;
constexpr std::size_t half = bit_period_us * samples_per_us / 2;
constexpr double pulse_amplitude = 1.0;

}  // namespace

double downlink_rate_bps() {
  return 1e6 / static_cast<double>(bit_period_us);
}

cvec encode_downlink(std::span<const std::uint8_t> bits) {
  cvec out;
  out.reserve(bits.size() * 2 * half);
  for (std::uint8_t bit : bits) {
    const cplx on{pulse_amplitude, 0.0};
    const cplx off{0.0, 0.0};
    const cplx first = (bit & 1u) ? on : off;
    const cplx second = (bit & 1u) ? off : on;
    out.insert(out.end(), half, first);
    out.insert(out.end(), half, second);
  }
  return out;
}

phy::bitvec decode_downlink(std::span<const cplx> samples) {
  const std::size_t n_bits = samples.size() / (2 * half);
  phy::bitvec bits(n_bits);
  for (std::size_t b = 0; b < n_bits; ++b) {
    double first = 0.0, second = 0.0;
    for (std::size_t i = 0; i < half; ++i) {
      first += std::abs(samples[b * 2 * half + i]);
      second += std::abs(samples[b * 2 * half + half + i]);
    }
    bits[b] = first > second ? 1 : 0;
  }
  return bits;
}

}  // namespace backfi::tag
