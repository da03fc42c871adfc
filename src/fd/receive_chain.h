// The reader's receive chain: analog cancellation -> AGC + ADC -> digital
// cancellation, adapted on the silent period and applied to the rest of
// the packet (paper Fig. 5).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "fd/adc.h"
#include "fd/canceller.h"

namespace backfi::obs {
class collector;
}  // namespace backfi::obs

namespace backfi::fd {

/// Why a receive_chain_config is unusable (the sim::config_error pattern:
/// a typed first-violation reason so sweep drivers can name the knob that
/// went out of range). Checked by validate(); run_receive_chain rejects
/// invalid configs up front.
enum class config_error : std::uint8_t {
  none,
  zero_analog_taps,       ///< analog.n_taps == 0
  zero_digital_taps,      ///< digital.n_taps == 0
  bad_adc_bits,           ///< adc.bits outside [1, 32]
};

/// Display name, e.g. "bad_adc_bits".
const char* to_string(config_error error);

struct receive_chain_config {
  analog_canceller_config analog;
  digital_canceller_config digital;
  adc_config adc;
  bool enable_analog = true;   ///< failure injection: bypass analog stage
  bool enable_digital = true;  ///< failure injection: bypass digital stage
  /// False = an ideal (infinite resolution) front end. Kept settable for
  /// ReceiveChainTest.IdealFrontEndSlightlyBetterThanAdc, which compares
  /// the ideal front end with the ADC.
  bool enable_adc = true;
  /// AGC full scale over the analog residual's RMS (agc_full_scale): 12 dB
  /// of crest-factor headroom for the OFDM self-interference residual.
  static constexpr double agc_headroom = 4.0;
  /// Residual gain tracking: both cancellation stages are static fits from
  /// the silent window, so any LO rotation (TX/RX reference mismatch,
  /// phase noise) re-grows the 90+ dB self-interference as SI*(e^{j\theta(t)}-1)
  /// over the packet. Tracking re-estimates a complex gain on the summed
  /// SI model per `gain_block` samples (4 us; linearly interpolated between
  /// block centres) and subtracts it. The backscatter's projection on the
  /// model is ~SI - 90 dB, so the tracker barely sees it — the scalar
  /// analogue of hardware residual phase tracking, not a protocol
  /// violation.
  bool track_residual_gain = false;
  static constexpr std::size_t gain_block = 80;
  /// Fault-injection hook for the receive front end, applied between the
  /// analog cancellation stage and the ADC — the physical location of the
  /// downconverter, whose LO/IQ blemishes (CFO, phase noise, IQ imbalance,
  /// DC offset) act on the analog-cancelled waveform, not on the raw
  /// antenna signal the RF canceller sees.
  std::function<void(std::span<cplx>)> front_end_hook;
  /// Region of interest: the closed-open absolute sample range the
  /// downstream consumer (decoder + probes) will read from the cleaned
  /// output, in the same coordinates as silent_begin/silent_end. When
  /// non-empty, the ADC quantization, digital cancellation and the
  /// residual-gain application sweep run only over silent_window ∪ roi;
  /// cleaned/digitized samples outside that union are left with
  /// unspecified (stale) contents and must not be read. Everything the
  /// contract allows reading — adaptation, analog/total depth,
  /// residual_power, the adc_saturated flag (taken from the analog stage's
  /// fused peak, or completed by a compare-only scan of the skipped
  /// regions when that stage is off or a hook ran) and every in-union
  /// sample — is
  /// bit-identical to the full sweep. Empty (default) = full capture,
  /// byte-for-byte the pre-ROI behaviour.
  ///
  /// Full-range rules: an installed front_end_hook mutates the whole
  /// analog-cancelled waveform, so it forces full-range quantization and
  /// cancellation regardless of the roi; residual-gain tracking fits its
  /// statistics over the whole capture by definition, so it too keeps the
  /// quantize/cancel sweeps full-range and restricts only the final
  /// gain-application pass.
  dsp::sample_range roi;
  /// Observability sink (nullable): the chain reports cancellation depths,
  /// ADC saturation / bypass events, the fd.receive_chain timing span and,
  /// when a roi is set, runtime.chain.roi.{samples_processed,
  /// samples_skipped,coverage} gauges through it. Null (the default)
  /// compiles to no-ops on the hot path.
  obs::collector* collector = nullptr;

  /// First violated constraint, or config_error::none when usable. Bypassed
  /// stages are still validated: a sweep that zeroes a knob is broken even
  /// when the stage happens to be disabled at that point.
  config_error validate() const;
};

/// Throw std::invalid_argument naming `where` and the violated constraint
/// when the config is invalid (called by run_receive_chain itself).
void validate_or_throw(const receive_chain_config& config, const char* where);

/// Result of running the chain over a full packet (the cleaned waveform
/// itself is in receive_chain_scratch::cleaned).
struct receive_chain_result {
  double analog_depth_db = 0.0;   ///< SI suppression of the analog stage
  double total_depth_db = 0.0;    ///< SI suppression of both stages
  double residual_power = 0.0;    ///< mean residual power in the silent window
  bool adc_saturated = false;     ///< clipping detected at the ADC
  /// Set when the adaptation window was degenerate (empty, reversed, past
  /// the buffer, or shorter than the tap count of an enabled canceller
  /// stage) or tx/rx were misaligned: no stage adapted, the scratch's
  /// `cleaned` is the raw rx, and the depths are zero. Callers must not
  /// trust the cancellation.
  bool cancellation_bypassed = false;
  /// ROI accounting (set only when config.roi was set): capture samples
  /// that went through the quantize/cancel sweeps vs. samples covered only
  /// by the compare-only saturation scan. With the roi unset both stay
  /// zero; forced full-range by a hook, processed equals the capture
  /// length.
  std::size_t roi_samples_processed = 0;
  std::size_t roi_samples_skipped = 0;
};

/// How far the analog stage has run over one capture (see
/// advance_receive_chain): the capture and silent window it belongs to,
/// whether the analog taps are adapted, and the running energy and peak of
/// after_analog[0, done), which is final.
struct analog_cursor {
  const cplx* tx = nullptr;
  const cplx* rx = nullptr;
  std::size_t size = 0;
  std::size_t silent_begin = 0;
  std::size_t silent_end = 0;
  bool adapted = false;
  std::size_t done = 0;
  double energy = 0.0;
  double peak = 0.0;
};

/// Caller-owned state of repeated run_receive_chain calls (one per worker
/// thread): every intermediate waveform, the cleaned output and both
/// cancellers' adapted taps. Buffers keep their capacity across calls, so
/// a warm chain allocates nothing.
struct receive_chain_scratch {
  cvec after_analog;
  cvec digitized;
  cvec cleaned;  ///< the chain's output: rx after both cancellation stages
  /// Adapted tap state of both canceller stages (re-adapted every capture).
  analog_canceller analog;
  digital_canceller digital;
  /// Adaptation workspaces for both canceller stages: least-squares fit
  /// state plus the widely-linear intermediates.
  canceller_scratch canceller;
  /// Residual-gain tracker per-block state (pass 2).
  cvec gain_a;
  std::vector<double> centre;
  /// The analog stage's progress over the capture being received; cleared
  /// by run_receive_chain when it finishes a capture.
  analog_cursor cursor;
};

/// Adapt on rx[silent_begin, silent_end) against the aligned tx samples and
/// clean the entire rx buffer into scratch->cleaned (see
/// receive_chain_config::roi for which samples are readable). tx and rx
/// must be time-aligned and equally long; a degenerate silent window (see
/// cancellation_bypassed, including one too short to fit an enabled
/// stage's taps) or misaligned buffers return a flagged pass-through result
/// instead of adapting on garbage. `scratch` is required (a null pointer
/// throws std::invalid_argument); once it has served a capture of the same
/// length the call allocates nothing.
///
/// The call advances the analog stage to the end of the capture (as
/// advance_receive_chain does) and then finishes the chain: AGC, ADC,
/// digital stage. It continues scratch->cursor only when the cursor belongs
/// to the same capture (the tx and rx buffers and length) and silent
/// window, and clears it in every case, so a reused scratch never picks up
/// another capture's prefix. The result is bit-identical however the
/// analog stage was split.
receive_chain_result run_receive_chain(std::span<const cplx> tx,
                                       std::span<const cplx> rx,
                                       std::size_t silent_begin,
                                       std::size_t silent_end,
                                       const receive_chain_config& config,
                                       receive_chain_scratch* scratch);

/// Run the analog stage of the capture over the samples below `upto`
/// (clamped to the capture), for a capture whose samples arrive in order:
/// once `upto` reaches silent_end the analog taps are adapted, and every
/// call cancels [done, upto) into scratch->after_analog, carrying the
/// residual's energy and peak in scratch->cursor. A cursor left from
/// another capture or window is restarted. Does nothing for a bypassed
/// analog stage or a degenerate window (run_receive_chain handles both).
/// The capture's samples below `upto` must not change before the
/// run_receive_chain call that finishes it, nor may config's analog stage.
void advance_receive_chain(std::span<const cplx> tx, std::span<const cplx> rx,
                           std::size_t silent_begin, std::size_t silent_end,
                           std::size_t upto,
                           const receive_chain_config& config,
                           receive_chain_scratch* scratch);

}  // namespace backfi::fd
