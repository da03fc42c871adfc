// 802.11a/g per-OFDM-symbol block interleaver (Clause 17.3.5.6): two
// permutations ensuring adjacent coded bits land on non-adjacent
// subcarriers and alternate constellation bit significance.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "phy/bits.h"

namespace backfi::phy {

/// Interleaving table for one OFDM symbol.
class interleaver {
 public:
  /// `n_cbps` coded bits per symbol, `n_bpsc` coded bits per subcarrier.
  interleaver(std::size_t n_cbps, std::size_t n_bpsc);

  std::size_t block_size() const { return forward_.size(); }

  /// Interleave exactly one block (size must equal block_size()) into a
  /// caller buffer of block_size() entries. Throws std::invalid_argument
  /// when either size differs.
  void interleave_into(std::span<const std::uint8_t> block,
                       std::span<std::uint8_t> out) const;

  /// De-interleave one block of bits. Like deinterleave_soft, throws
  /// std::invalid_argument unless block.size() == block_size().
  bitvec deinterleave(std::span<const std::uint8_t> block) const;

  /// De-interleave one block of soft metrics.
  std::vector<double> deinterleave_soft(std::span<const double> block) const;

  /// Position in the interleaved block where input bit k lands.
  std::size_t map_index(std::size_t k) const { return forward_[k]; }

 private:
  std::vector<std::size_t> forward_;  // forward_[k] = output index of input k
};

}  // namespace backfi::phy
