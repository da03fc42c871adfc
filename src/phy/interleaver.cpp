#include "phy/interleaver.h"

#include <algorithm>
#include <stdexcept>

namespace backfi::phy {

namespace {

void require_block_size(std::size_t got, std::size_t want) {
  if (got != want)
    throw std::invalid_argument(
        "interleaver: block size differs from block_size()");
}

}  // namespace

interleaver::interleaver(std::size_t n_cbps, std::size_t n_bpsc) {
  if (n_cbps == 0 || n_cbps % 16 != 0)
    throw std::invalid_argument("interleaver: n_cbps must be a positive multiple of 16");
  forward_.resize(n_cbps);
  const std::size_t s = std::max<std::size_t>(n_bpsc / 2, 1);
  for (std::size_t k = 0; k < n_cbps; ++k) {
    // First permutation: write row-wise, read column-wise over 16 columns.
    const std::size_t i = (n_cbps / 16) * (k % 16) + k / 16;
    // Second permutation: rotate within groups of s to alternate bit
    // significance across subcarriers.
    const std::size_t j =
        s * (i / s) + (i + n_cbps - (16 * i) / n_cbps) % s;
    forward_[k] = j;
  }
}

std::vector<double> interleaver::deinterleave_soft(
    std::span<const double> block) const {
  require_block_size(block.size(), forward_.size());
  std::vector<double> out(block.size());
  for (std::size_t k = 0; k < block.size(); ++k) out[k] = block[forward_[k]];
  return out;
}

}  // namespace backfi::phy
