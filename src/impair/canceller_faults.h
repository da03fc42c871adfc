// Self-interference canceller faults. The receive chain adapts its analog
// and digital taps on the tag's 16 us silent window and then holds them for
// the rest of the packet — so any drift of the analog network after
// adaptation (temperature, supply ripple, mechanical vibration of the
// tunable attenuators) re-opens a residual leakage channel tx * dh(t) that
// grows mid-packet. A stage failure (a tap bank dropping out) re-admits a
// large constant fraction of the self-interference from one instant on.
//
// Both injectors act on the *cleaned* output given the aligned transmit
// samples, which is mathematically identical to perturbing the analog taps
// themselves: residual += tx (*) dh(t).
#pragma once

#include <cstdint>
#include <span>

#include "dsp/rng.h"
#include "dsp/types.h"

namespace backfi::impair {

struct canceller_drift_config {
  /// Residual leakage (relative to tx power) reached at the end of the
  /// buffer; ramps quadratically from zero at `adapt_end` (thermal drift
  /// accelerates). -infinity dB (<= -200) disables.
  double final_leakage_db = -200.0;
};

/// Add the drifted-tap residual (a random 2-tap leakage channel) to
/// `cleaned` from `adapt_end` onward.
void apply_canceller_drift(const canceller_drift_config& config,
                           std::span<const cplx> tx, std::span<cplx> cleaned,
                           std::size_t adapt_end, dsp::rng& gen);

struct canceller_stage_failure_config {
  /// Leakage power relative to tx power once the stage fails; a failed
  /// analog bank typically re-admits SI only ~20-40 dB below the direct
  /// path. <= -200 disables.
  double leakage_db = -200.0;
  /// Failure instant as a fraction of the buffer length.
  double at_frac = 0.5;
};

/// Re-admit a constant random 2-tap leakage channel from the failure
/// instant onward.
void apply_canceller_stage_failure(const canceller_stage_failure_config& config,
                                   std::span<const cplx> tx,
                                   std::span<cplx> cleaned, dsp::rng& gen);

}  // namespace backfi::impair
