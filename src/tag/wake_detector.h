// Tag wake-up detector (paper Section 4.1): an envelope detector, peak
// finder, set-threshold circuit (half the peak) and comparator produce one
// bit decision per microsecond; digital logic correlates the sliding
// 16-bit window against the tag's assigned pseudo-random preamble.
//
// The reference designs [40, 18] detect inputs down to -41 dBm while
// consuming ~100 nW, which gates the tag's wake range.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "dsp/types.h"
#include "phy/bits.h"

namespace backfi::tag {

/// Samples per wake-preamble bit: the reader's OOK pulses and the tag's
/// comparator both run at one bit per microsecond.
inline constexpr std::size_t samples_per_wake_bit = samples_per_us;

/// Incident samples the tag's detector examines for a `wake_bits`-bit wake
/// preamble: the pulses plus 4 bits of slack.
constexpr std::size_t wake_window_samples(std::size_t wake_bits) {
  return (wake_bits + 4) * samples_per_wake_bit;
}

struct wake_detector_config {
  double sensitivity_dbm = -50.0;   ///< minimum detectable input power (the
                                    ///< cited designs span -41 [40] to -56 [18])
  double threshold_fraction = 0.5;  ///< comparator threshold vs held peak
  std::size_t max_bit_errors = 1;   ///< tolerated mismatches in the correlator
};

struct wake_result {
  bool woke = false;
  /// Sample index (within the examined span) of the end of the preamble —
  /// the tag's local time origin for the silent/preamble/data schedule.
  std::size_t preamble_end_sample = 0;
  std::size_t bit_errors = 0;  ///< mismatches at the accepted alignment
};

/// Run the envelope/comparator pipeline over incident samples and search
/// for the tag's wake preamble. `incident_power_dbm` is the average RF
/// power at the tag while the reader pulses "on" (used for the sensitivity
/// gate). Samples are complex baseband at the tag's antenna, normalized
/// like everything else to the reader's transmit reference.
wake_result detect_wake(std::span<const cplx> samples,
                        std::span<const std::uint8_t> preamble,
                        double incident_power_dbm,
                        const wake_detector_config& config = {});

}  // namespace backfi::tag
