// Pseudo-random binary sequences from LFSRs.
//
// Used for the BackFi wake preamble (16-bit per-tag sequence, paper §4.1)
// and the tag's 32 us synchronization preamble, both of which need high
// autocorrelation peaks.
#pragma once

#include <cstdint>

#include "phy/bits.h"

namespace backfi::phy {

/// Galois LFSR producing a maximal-length (m-)sequence.
class lfsr {
 public:
  /// `taps` is the feedback polynomial mask (e.g. 0b1100000 for x^7+x^6+1);
  /// `state` must be nonzero (std::invalid_argument otherwise).
  lfsr(std::uint32_t taps, std::uint32_t state);

  /// Next output bit.
  std::uint8_t next_bit();

  /// Generate n bits.
  bitvec bits(std::size_t n);

 private:
  std::uint32_t taps_;
  std::uint32_t state_;
};

/// The n-bit pseudo-random wake preamble assigned to a tag id, written
/// into `out` (resized to n_bits). Distinct ids give sequences with low
/// cross-correlation (different LFSR phases).
void wake_preamble_into(std::uint32_t tag_id, std::size_t n_bits, bitvec& out);

/// wake_preamble_into() into a new vector.
inline bitvec wake_preamble(std::uint32_t tag_id, std::size_t n_bits = 16) {
  bitvec out;
  wake_preamble_into(tag_id, n_bits, out);
  return out;
}

/// PN sequence used by the tag's synchronization preamble (+-1 chips as
/// bits); deterministic per tag id.
bitvec sync_sequence(std::uint32_t tag_id, std::size_t n_bits);

}  // namespace backfi::phy
