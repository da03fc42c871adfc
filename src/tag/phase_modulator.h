// Behavioural model of the tag's backscatter phase modulator (paper
// Fig. 3): a binary tree of SPDT switches routes the incident RF to one of
// N short-circuited stubs whose trace lengths realize the N discrete
// reflection phases. Selecting leaf k reflects the signal multiplied by
// e^{j 2 pi k / N} (times the insertion-loss amplitude).
#pragma once

#include <cstdint>

#include "dsp/types.h"
#include "phy/bits.h"

namespace backfi::tag {

class phase_modulator {
 public:
  /// `order` in {2, 4, 8, 16}; `insertion_loss_db` models switch and stub
  /// losses on the reflected signal.
  phase_modulator(std::size_t order, double insertion_loss_db);

  std::size_t order() const { return order_; }
  std::size_t bits_per_symbol() const { return bits_per_symbol_; }

  /// Number of SPDT switches in the tree (order - 1).
  std::size_t switch_count() const { return order_ - 1; }

  /// Reflection coefficient when the modulator selects leaf k directly.
  cplx reflection_for_index(std::uint32_t leaf_index) const;

  /// Select the leaf of a symbol given by its gray-coded bit label (matches
  /// phy::psk_constellation labelling) and count how many switches along
  /// the tree path actually toggle (for energy accounting); returns the
  /// reflection.
  cplx select(std::uint32_t gray_label);

  /// Total switch toggles since construction / reset.
  std::uint64_t toggle_count() const { return toggles_; }
  void reset_toggle_count() { toggles_ = 0; }

  /// Amplitude of the reflected signal (< 1).
  double reflection_amplitude() const { return amplitude_; }

 private:
  std::size_t order_;
  std::size_t bits_per_symbol_;
  double amplitude_;
  std::uint32_t current_leaf_ = 0;
  std::uint64_t toggles_ = 0;
};

}  // namespace backfi::tag
