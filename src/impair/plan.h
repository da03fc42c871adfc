// Composable impairment plan: one struct aggregating every injector's
// config plus a seed, with apply_* hooks for each pipeline boundary the
// simulator exposes. Each hook forks an independent, deterministic RNG
// stream from the seed, so enabling one injector never perturbs another's
// random draws (campaign sweeps stay comparable point-to-point).
#pragma once

#include <cstdint>
#include <span>

#include "impair/burst_faults.h"
#include "impair/canceller_faults.h"
#include "impair/rf_impairments.h"
#include "impair/tag_faults.h"

namespace backfi::impair {

struct impairment_plan {
  // RF front end (receive path, before the cancellation chain).
  cfo_config cfo;
  phase_noise_config phase_noise;
  iq_imbalance_config iq;
  saturation_burst_config saturation;
  interferer_config interferer;
  // Tag side (reflection waveform).
  oscillator_jitter_config tag_jitter;
  brownout_config brownout;
  // Canceller (after adaptation on the silent window).
  canceller_drift_config canceller_drift;
  canceller_stage_failure_config stage_failure;

  std::uint64_t seed = 0x0fa17ULL;

  /// Any front-end (downconverter) injector active? These must be applied
  /// AFTER the analog cancellation stage — see `apply_front_end`.
  bool any_front_end() const;

  /// Any post-cancellation injector active (canceller drift / stage
  /// failure)? These rewrite the cleaned waveform after the chain — see
  /// `apply_post_cancellation`. Drivers install the post-cancel hook only
  /// when this holds, so the fault-free path keeps its region-of-interest
  /// processing.
  bool any_post_cancellation() const;

  /// Antenna-domain faults on the reader's raw receive buffer (the
  /// interferer and ADC-slamming blockers arrive through the air; the RF
  /// canceller cannot subtract them because they are tx-uncorrelated).
  void apply_at_antenna(std::span<cplx> rx) const;

  /// Receive front-end faults: the downconverter sits BETWEEN the analog
  /// canceller and the ADC, so its LO/IQ blemishes (CFO, phase noise, IQ
  /// imbalance + DC offset) act on the analog-cancelled residual, not on
  /// the raw antenna signal. Wire this as
  /// `receive_chain_config::front_end_hook`.
  void apply_front_end(std::span<cplx> samples) const;

  /// Both of the above in physical order — for standalone waveform studies
  /// where no cancellation chain is in the loop.
  void apply_to_rx(std::span<cplx> rx) const;

  /// Faults on the tag's reflection waveform; `active_begin/active_end`
  /// bound the modulated region.
  void apply_to_reflection(std::span<cplx> reflection, std::size_t active_begin,
                           std::size_t active_end) const;

  /// Faults on the cancelled output (tap drift after the adaptation window
  /// ending at `adapt_end`, stage failures).
  void apply_post_cancellation(std::span<const cplx> tx, std::span<cplx> cleaned,
                               std::size_t adapt_end) const;
};

/// The fault classes the robustness campaign sweeps.
enum class fault_class {
  none,
  cfo_drift,
  phase_noise,
  iq_imbalance,
  adc_saturation_bursts,
  wifi_interferer,
  canceller_drift,
  canceller_stage_failure,
  tag_oscillator_jitter,
  tag_brownout,
};

/// Display name, e.g. "canceller_drift".
const char* fault_class_name(fault_class fault);

/// All sweepable classes (excludes `none`).
std::span<const fault_class> all_fault_classes();

/// Map (class, severity in [0, 1]) to a concrete plan. Severity 0 is a
/// clean link; severity 1 is well past the point where the fixed-rate,
/// no-recovery pipeline collapses.
impairment_plan plan_for(fault_class fault, double severity,
                         std::uint64_t seed);

}  // namespace backfi::impair
