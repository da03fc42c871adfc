#include "tag/phase_modulator.h"

#include <bit>
#include <stdexcept>

#include "dsp/math_util.h"
#include "phy/constellation.h"

namespace backfi::tag {

phase_modulator::phase_modulator(std::size_t order, double insertion_loss_db)
    : order_(order), amplitude_(dsp::db_to_amplitude(-insertion_loss_db)) {
  switch (order) {
    case 2: bits_per_symbol_ = 1; break;
    case 4: bits_per_symbol_ = 2; break;
    case 8: bits_per_symbol_ = 3; break;
    case 16: bits_per_symbol_ = 4; break;
    default:
      throw std::invalid_argument("phase_modulator: order must be 2/4/8/16");
  }
}

cplx phase_modulator::reflection_for_index(std::uint32_t leaf_index) const {
  const double angle =
      two_pi * static_cast<double>(leaf_index % order_) / static_cast<double>(order_);
  return amplitude_ * dsp::phasor(angle);
}

cplx phase_modulator::select(std::uint32_t gray_label) {
  const std::uint32_t leaf = phy::gray_decode(gray_label) % order_;
  // In the switch tree, moving from leaf a to leaf b toggles the switches
  // above their lowest common ancestor: the differing bits of the leaf
  // indices determine how deep the path change reaches.
  const std::uint32_t diff = current_leaf_ ^ leaf;
  if (diff != 0) {
    // Highest differing level (1-based from the leaves).
    const int levels = std::bit_width(diff);
    // A level-l change re-routes one switch at each of l tree levels.
    toggles_ += static_cast<std::uint64_t>(levels);
  }
  current_leaf_ = leaf;
  return reflection_for_index(leaf);
}

}  // namespace backfi::tag
