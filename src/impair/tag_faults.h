// Tag-side faults, applied to the tag's per-sample reflection waveform
// before it multiplies the incident excitation:
//
//  - oscillator jitter: the tag's ring-oscillator symbol clock wanders
//    (ppm-scale frequency error plus random-walk phase jitter on the
//    reflected phase), smearing symbol boundaries against the reader's
//    schedule — the monostatic-platform paper's central channel-estimation
//    hazard (arXiv:2601.02227);
//  - energy brownout: the harvested supply sags mid-packet and the
//    modulator drops to zero reflection for a span (GuardRider's bursty
//    excitation starvation), truncating the packet from the reader's view.
#pragma once

#include <cstdint>
#include <span>

#include "dsp/rng.h"
#include "dsp/types.h"

namespace backfi::impair {

struct oscillator_jitter_config {
  /// Symbol-clock frequency error; the reflection waveform is stretched by
  /// (1 + ppm*1e-6), sliding late symbols off the reader's grid.
  double clock_ppm = 0.0;
  /// RMS per-sample random-walk jitter on the reflected phase [rad].
  double phase_jitter_rad = 0.0;
};

/// Apply jitter to the active (non-silent) part of the reflection.
/// `active_begin/active_end` bound the tag's modulated region.
void apply_oscillator_jitter(const oscillator_jitter_config& config,
                             std::span<cplx> reflection,
                             std::size_t active_begin, std::size_t active_end,
                             dsp::rng& gen);

struct brownout_config {
  double probability = 0.0;       ///< chance the brownout fires this packet
  double duration_us = 50.0;      ///< dropout length once it fires
};

/// Zero the reflection over a dropout window inside the active region,
/// starting no earlier than 30% into it (the harvester usually survives
/// the preamble; payload is where it dies). Returns true when the brownout
/// fired.
bool apply_brownout(const brownout_config& config, std::span<cplx> reflection,
                    std::size_t active_begin, std::size_t active_end,
                    dsp::rng& gen);

}  // namespace backfi::impair
