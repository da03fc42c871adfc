#include "impair/plan.h"

#include <array>

namespace backfi::impair {

namespace {

/// Independent RNG stream per pipeline boundary: mixing a distinct salt
/// into the seed keeps one injector's draws stable when another is toggled.
dsp::rng stream(std::uint64_t seed, std::uint64_t salt) {
  return dsp::rng(seed * 0x9e3779b97f4a7c15ULL + salt);
}

}  // namespace

bool impairment_plan::any_front_end() const {
  return cfo.offset_hz != 0.0 || cfo.drift_hz_per_s != 0.0 ||
         phase_noise.linewidth_hz > 0.0 || iq.gain_mismatch_db != 0.0 ||
         iq.phase_skew_deg != 0.0 || iq.dc_offset != cplx{0.0, 0.0} ||
         iq.dc_over_rms != 0.0 || sampling.ppm != 0.0;
}

bool impairment_plan::any_post_cancellation() const {
  return canceller_drift.final_leakage_db > -200.0 ||
         stage_failure.leakage_db > -200.0;
}

void impairment_plan::apply_at_antenna(std::span<cplx> rx) const {
  if (interferer.bursts_per_ms > 0.0) {
    dsp::rng gen = stream(seed, 1);
    apply_interferer(interferer, rx, gen);
  }
  if (saturation.bursts_per_ms > 0.0) {
    dsp::rng gen = stream(seed, 2);
    apply_saturation_bursts(saturation, rx, gen);
  }
}

void impairment_plan::apply_front_end(std::span<cplx> samples) const {
  apply_cfo(cfo, samples);
  if (phase_noise.linewidth_hz > 0.0) {
    dsp::rng gen = stream(seed, 3);
    apply_phase_noise(phase_noise, samples, gen);
  }
  apply_iq_imbalance(iq, samples);
  apply_sampling_offset(sampling, samples);
}

void impairment_plan::apply_to_rx(std::span<cplx> rx) const {
  // Air first (the interferer arrives through the antenna), then the
  // downconverter — matching the physical order.
  apply_at_antenna(rx);
  apply_front_end(rx);
}

void impairment_plan::apply_to_reflection(std::span<cplx> reflection,
                                          std::size_t active_begin,
                                          std::size_t active_end) const {
  if (tag_jitter.clock_ppm != 0.0 || tag_jitter.phase_jitter_rad > 0.0) {
    dsp::rng gen = stream(seed, 4);
    apply_oscillator_jitter(tag_jitter, reflection, active_begin, active_end,
                            gen);
  }
  if (brownout.probability > 0.0) {
    dsp::rng gen = stream(seed, 5);
    apply_brownout(brownout, reflection, active_begin, active_end, gen);
  }
}

void impairment_plan::apply_post_cancellation(std::span<const cplx> tx,
                                              std::span<cplx> cleaned,
                                              std::size_t adapt_end) const {
  if (canceller_drift.final_leakage_db > -200.0) {
    dsp::rng gen = stream(seed, 6);
    apply_canceller_drift(canceller_drift, tx, cleaned, adapt_end, gen);
  }
  if (stage_failure.leakage_db > -200.0) {
    dsp::rng gen = stream(seed, 7);
    apply_canceller_stage_failure(stage_failure, tx, cleaned, gen);
  }
}

const char* fault_class_name(fault_class fault) {
  switch (fault) {
    case fault_class::none: return "none";
    case fault_class::cfo_drift: return "cfo_drift";
    case fault_class::phase_noise: return "phase_noise";
    case fault_class::iq_imbalance: return "iq_imbalance";
    case fault_class::adc_saturation_bursts: return "adc_saturation_bursts";
    case fault_class::wifi_interferer: return "wifi_interferer";
    case fault_class::canceller_drift: return "canceller_drift";
    case fault_class::canceller_stage_failure:
      return "canceller_stage_failure";
    case fault_class::tag_oscillator_jitter: return "tag_oscillator_jitter";
    case fault_class::tag_brownout: return "tag_brownout";
  }
  return "unknown";
}

std::span<const fault_class> all_fault_classes() {
  static constexpr std::array<fault_class, 9> classes = {
      fault_class::cfo_drift,
      fault_class::phase_noise,
      fault_class::iq_imbalance,
      fault_class::adc_saturation_bursts,
      fault_class::wifi_interferer,
      fault_class::canceller_drift,
      fault_class::canceller_stage_failure,
      fault_class::tag_oscillator_jitter,
      fault_class::tag_brownout,
  };
  return classes;
}

impairment_plan plan_for(fault_class fault, double severity,
                         std::uint64_t seed) {
  impairment_plan plan;
  plan.seed = seed;
  switch (fault) {
    case fault_class::none:
      break;
    case fault_class::cfo_drift:
      // Residual TX/RX LO mismatch (reference-distribution fault). A
      // shared-LO monostatic reader sees ~none of this; once the
      // references split, the downconverter rotates the ~60 dB-over-noise
      // analog residual out from under the static digital fit. The plain
      // chain collapses by ~50 Hz; residual gain tracking holds to a few
      // hundred Hz before the rotation outruns the block rate.
      plan.cfo.offset_hz = 500.0 * severity;
      plan.cfo.drift_hz_per_s = 2.0e4 * severity;
      break;
    case fault_class::phase_noise:
      // Same mechanism, diffusive instead of deterministic: a Lorentzian
      // LO walks the analog residual's phase within the packet. ~1 Hz
      // linewidth already hurts the static fit; tracking follows the walk
      // up to ~100 Hz linewidths.
      plan.phase_noise.linewidth_hz = 150.0 * severity;
      break;
    case fault_class::iq_imbalance:
      // The skewed downconverter leaks a conjugate image of the analog
      // residual that a strictly linear canceller cannot touch, plus a DC
      // spur. The image coefficient is static, so the widely-linear
      // digital stage + whole-packet image fit (recovery arm) remove it;
      // the baseline chain drowns by ~0.5 dB gain mismatch.
      plan.iq.gain_mismatch_db = 1.5 * severity;
      plan.iq.phase_skew_deg = 4.5 * severity;
      plan.iq.dc_over_rms = 0.03 * severity;
      break;
    case fault_class::adc_saturation_bursts:
      plan.saturation.bursts_per_ms = 4.0 * severity;
      plan.saturation.mean_duration_us = 4.0;
      plan.saturation.amplitude_over_rms = 40.0;
      break;
    case fault_class::wifi_interferer:
      plan.interferer.bursts_per_ms = 2.0 * severity;
      plan.interferer.mean_duration_us = 250.0;
      plan.interferer.power_db_over_signal = -20.0 + 15.0 * severity;
      break;
    case fault_class::canceller_drift:
      // Leakage is relative to the full TX power, and the backscatter
      // sits ~90-100 dB below it: -110 dB re-grown SI is already near the
      // post-cancellation floor, -75 dB buries the payload. Severity 0
      // disables the injector (<= -200 dB sentinel).
      plan.canceller_drift.final_leakage_db =
          severity > 0.0 ? -100.0 + 16.0 * severity : -1000.0;
      break;
    case fault_class::canceller_stage_failure:
      plan.stage_failure.leakage_db =
          severity > 0.0 ? -100.0 + 15.0 * severity : -1000.0;
      // Early enough to hit the payload region at every symbol rate the
      // fallback ladder visits (the buffer is resized per operating point).
      plan.stage_failure.at_frac = 0.2;
      break;
    case fault_class::tag_oscillator_jitter:
      // Cheap RC-oscillator class. Cumulative timing slip across the
      // packet must stay within the decoder's per-symbol guard, so a few
      // hundred ppm is already disruptive at the fast operating points;
      // the phase walk is what decision-directed tracking absorbs.
      plan.tag_jitter.clock_ppm = 1600.0 * severity;
      plan.tag_jitter.phase_jitter_rad = 0.02 * severity;
      break;
    case fault_class::tag_brownout:
      plan.brownout.probability = severity;
      plan.brownout.duration_us = 60.0;
      break;
  }
  return plan;
}

}  // namespace backfi::impair
