// Deterministic RF front-end impairment injectors (the "dirty radio"
// effects the paper's WARP testbed suffers implicitly): carrier frequency
// offset with drift, oscillator phase noise, and IQ imbalance + DC offset.
// Each injector is a plain config struct plus an apply() that mutates a
// span of complex baseband samples in place, driven only by the config and
// (where stochastic) an explicit dsp::rng — so every fault campaign is
// reproducible sample-for-sample.
#pragma once

#include <cstdint>
#include <span>

#include "dsp/rng.h"
#include "dsp/types.h"

namespace backfi::impair {

/// Carrier frequency offset between the tag's reflection path and the
/// reader's LO, with a linear drift term (oscillator warm-up / thermal
/// ramp). The WARP-class ±20 ppm TCXO at 2.4 GHz gives up to ~50 kHz.
struct cfo_config {
  double offset_hz = 0.0;         ///< static offset
  double drift_hz_per_s = 0.0;    ///< linear frequency ramp
};

/// Rotate samples by the accumulated CFO phase. `start_sample` is the
/// span's position on the global timeline so that spans compose.
void apply_cfo(const cfo_config& config, std::span<cplx> x,
               std::size_t start_sample = 0);

/// Wiener (random-walk) oscillator phase noise with a Lorentzian linewidth:
/// per-sample phase increments are N(0, 2*pi*linewidth*Ts).
struct phase_noise_config {
  double linewidth_hz = 0.0;
};

void apply_phase_noise(const phase_noise_config& config, std::span<cplx> x,
                       dsp::rng& gen);

/// Receive-path IQ imbalance (gain + phase skew between the I and Q rails)
/// plus a static DC offset — the classic direct-conversion front-end
/// blemishes that leak an image tone and a spectral spike at DC.
struct iq_imbalance_config {
  double gain_mismatch_db = 0.0;  ///< Q rail gain relative to I
  double phase_skew_deg = 0.0;    ///< quadrature error
  /// Additive LO leakage at DC as a fraction of the span's RMS amplitude,
  /// so callers need not know the absolute signal scale (the fault plan:
  /// the span is dominated by self-interference whose level depends on the
  /// scenario). Added at 45 degrees so both rails see it.
  double dc_over_rms = 0.0;
};

void apply_iq_imbalance(const iq_imbalance_config& config, std::span<cplx> x);

/// Slow LO phase drift *between packets* along a continuous capture: the
/// residual phase offset between the reader's LO and the tag's reflection
/// performs a random walk from packet to packet (thermal drift far below
/// the per-sample phase-noise linewidth). The streaming reader re-estimates
/// the combined channel per packet, so this models the inter-packet
/// decorrelation that batch one-shot trials cannot express.
///
/// Seeded evolution contract (pinned by tests): when enabled, step()
/// consumes exactly one gen.gaussian() draw per packet in stream order —
/// theta_k = theta_{k-1} + step_std_rad * g_k — and zero draws when
/// disabled, so the phase at packet k depends only on (seed, k).
struct lo_drift_config {
  double step_std_rad = 0.0;  ///< per-packet random-walk step; <= 0 disables

  bool enabled() const { return step_std_rad > 0.0; }
};

struct lo_drift_state {
  double phase_rad = 0.0;

  /// Advance one packet step and return the new accumulated phase.
  double step(const lo_drift_config& config, dsp::rng& gen);
};

/// Rotate every sample by the constant phasor e^{j*phase_rad} (the frozen
/// per-packet LO offset applied to the backscatter component).
void apply_constant_phase(std::span<cplx> x, double phase_rad);

}  // namespace backfi::impair
