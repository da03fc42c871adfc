// Tapped-delay-line multipath channel generation.
//
// Tap spacing equals the 50 ns baseband sample period; the paper's indoor
// delay spreads of 50-80 ns therefore give channels of a handful of taps —
// "the length of the channel is far smaller [than the tag symbol period]"
// (Section 4.3.2), which is the property the BackFi decoder exploits.
#pragma once

#include <span>

#include "dsp/rng.h"
#include "dsp/types.h"

namespace backfi::channel {

/// Statistical description of a multipath channel.
struct multipath_profile {
  std::size_t n_taps = 3;          ///< channel length in 50 ns taps
  double delay_spread_ns = 60.0;   ///< RMS delay spread of the exponential PDP
  double rician_k_db = 10.0;       ///< LoS-to-scatter power ratio of tap 0
  double total_gain_db = 0.0;      ///< E[sum |h|^2] in dB
};

/// Draw a random tapped-delay-line realization: exponential power delay
/// profile, Rician first tap, Rayleigh later taps, normalized so the
/// expected (not per-draw) total power equals total_gain_db.
cvec draw_multipath(const multipath_profile& profile, dsp::rng& gen);

/// Convolve a signal with channel taps (output same length as input).
cvec apply_channel(std::span<const cplx> x, std::span<const cplx> taps);

/// As apply_channel(), into a reusable caller buffer; bit-identical.
void apply_channel_into(std::span<const cplx> x, std::span<const cplx> taps,
                        cvec& out);

/// Total tap power sum |h_k|^2.
double tap_power(std::span<const cplx> taps);

}  // namespace backfi::channel
