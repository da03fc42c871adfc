#include "tag/wake_detector.h"

#include <algorithm>
#include <cmath>

#include "dsp/vec_ops.h"

namespace backfi::tag {

wake_result detect_wake(std::span<const cplx> samples,
                        std::span<const std::uint8_t> preamble,
                        double incident_power_dbm,
                        const wake_detector_config& config) {
  wake_result result;
  if (incident_power_dbm < config.sensitivity_dbm) return result;
  if (preamble.empty()) return result;

  const std::size_t n_bits = samples.size() / samples_per_wake_bit;
  if (n_bits < preamble.size()) return result;

  // Per-bit envelope values (the comparator input).
  std::vector<double> envelope(n_bits, 0.0);
  for (std::size_t b = 0; b < n_bits; ++b) {
    double acc = 0.0;
    for (std::size_t i = 0; i < samples_per_wake_bit; ++i)
      acc += std::abs(samples[b * samples_per_wake_bit + i]);
    envelope[b] = acc / static_cast<double>(samples_per_wake_bit);
  }

  // The peak detector tracks the recent input: threshold each candidate
  // alignment against the peak *within that window*, so louder signal
  // arriving later (e.g. the WiFi payload) cannot mask the pulses.
  for (std::size_t start = 0; start + preamble.size() <= n_bits; ++start) {
    double peak = 0.0;
    for (std::size_t k = 0; k < preamble.size(); ++k)
      peak = std::max(peak, envelope[start + k]);
    const double threshold = peak * config.threshold_fraction;
    std::size_t errors = 0;
    for (std::size_t k = 0; k < preamble.size() && errors <= config.max_bit_errors;
         ++k) {
      const std::uint8_t bit = envelope[start + k] > threshold ? 1 : 0;
      errors += (bit != (preamble[k] & 1u)) ? 1 : 0;
    }
    if (errors <= config.max_bit_errors) {
      result.woke = true;
      result.bit_errors = errors;
      result.preamble_end_sample = (start + preamble.size()) * samples_per_wake_bit;
      return result;
    }
  }
  return result;
}

}  // namespace backfi::tag
