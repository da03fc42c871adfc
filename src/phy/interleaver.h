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

  /// De-interleave one block of soft metrics. Throws
  /// std::invalid_argument unless block.size() == block_size().
  std::vector<double> deinterleave_soft(std::span<const double> block) const;

  /// Position in the interleaved block where input bit k lands.
  std::size_t map_index(std::size_t k) const { return forward_[k]; }

 private:
  std::vector<std::size_t> forward_;  // forward_[k] = output index of input k
};

}  // namespace backfi::phy
