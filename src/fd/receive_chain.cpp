#include "fd/receive_chain.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <string>

#include "dsp/vec_ops.h"
#include "fd/chain_kernels.h"
#include "obs/collector.h"

namespace backfi::fd {

const char* to_string(config_error error) {
  switch (error) {
    case config_error::none: return "none";
    case config_error::zero_analog_taps: return "zero_analog_taps";
    case config_error::zero_coefficient_bits: return "zero_coefficient_bits";
    case config_error::zero_digital_taps: return "zero_digital_taps";
    case config_error::bad_ridge: return "bad_ridge";
    case config_error::bad_adc_bits: return "bad_adc_bits";
    case config_error::bad_agc_headroom: return "bad_agc_headroom";
    case config_error::zero_gain_block: return "zero_gain_block";
    case config_error::bad_coefficient_bits: return "bad_coefficient_bits";
  }
  return "unknown";
}

config_error receive_chain_config::validate() const {
  if (analog.n_taps == 0) return config_error::zero_analog_taps;
  if (analog.coefficient_bits == 0) return config_error::zero_coefficient_bits;
  // The quantization step is max_mag / 2^(bits - 1); past 64 bits the
  // hardware model is meaningless (and the former integer-shift spelling
  // was undefined behaviour there).
  if (analog.coefficient_bits > 64) return config_error::bad_coefficient_bits;
  if (digital.n_taps == 0) return config_error::zero_digital_taps;
  if (!std::isfinite(digital.ridge) || digital.ridge < 0.0)
    return config_error::bad_ridge;
  if (adc.bits == 0 || adc.bits > 32) return config_error::bad_adc_bits;
  if (!std::isfinite(agc_headroom) || agc_headroom <= 0.0)
    return config_error::bad_agc_headroom;
  if (track_residual_gain && gain_block == 0)
    return config_error::zero_gain_block;
  return config_error::none;
}

void validate_or_throw(const receive_chain_config& config, const char* where) {
  const config_error error = config.validate();
  if (error == config_error::none) return;
  std::string message = where;
  message += ": invalid receive_chain_config (";
  message += to_string(error);
  message += ")";
  throw std::invalid_argument(message);
}

namespace {

/// silent_window ∪ roi as up to two disjoint ascending ranges (one when
/// they touch or overlap — the common case, since the decoder's window
/// starts at the silent window's end). Both inputs are already clamped to
/// the capture length; the silent window is non-degenerate here.
std::size_t union_ranges(dsp::sample_range silent, dsp::sample_range roi,
                         std::array<dsp::sample_range, 2>& out) {
  dsp::sample_range lo = silent, hi = roi;
  if (hi.begin < lo.begin) std::swap(lo, hi);
  if (hi.begin <= lo.end) {  // touching/overlapping: one merged range
    out[0] = {lo.begin, std::max(lo.end, hi.end)};
    return 1;
  }
  out[0] = lo;
  out[1] = hi;
  return 2;
}

}  // namespace

receive_chain_result run_receive_chain(std::span<const cplx> tx,
                                       std::span<const cplx> rx,
                                       std::size_t silent_begin,
                                       std::size_t silent_end,
                                       const receive_chain_config& config,
                                       receive_chain_scratch* scratch_ptr) {
  validate_or_throw(config, "run_receive_chain");
  if (scratch_ptr == nullptr)
    throw std::invalid_argument("run_receive_chain: scratch is required");
  receive_chain_scratch& scratch = *scratch_ptr;
  receive_chain_result result;
  cvec& after_analog = scratch.after_analog;
  cvec& digitized = scratch.digitized;
  cvec& cleaned = scratch.cleaned;
  obs::timing_span chain_span(config.collector,
                              obs::probe::timing_receive_chain);
  // A degenerate adaptation window (or misaligned tx/rx) would train both
  // cancellers on garbage and silently "cancel" the backscatter itself; a
  // window shorter than an enabled stage's tap count has fewer rows than
  // unknowns and cannot be fitted at all. Flag it and pass the input
  // through untouched instead.
  const std::size_t min_window =
      std::max(config.enable_analog ? config.analog.n_taps : 0,
               config.enable_digital ? config.digital.n_taps : 0);
  if (tx.size() != rx.size() || silent_begin >= silent_end ||
      silent_end > rx.size() || silent_end - silent_begin < min_window) {
    result.cancellation_bypassed = true;
    obs::count(config.collector, obs::probe::cancellation_bypassed);
    cleaned.resize(rx.size());
    std::copy(rx.begin(), rx.end(), cleaned.begin());
    result.residual_power = dsp::mean_power(cleaned);
    return result;
  }

  const auto tx_silent = tx.subspan(silent_begin, silent_end - silent_begin);
  const auto rx_silent = rx.subspan(silent_begin, silent_end - silent_begin);

  // --- Region of interest (see receive_chain_config::roi) ---
  // The analog stage always runs full-length: the AGC's full-scale choice
  // is a function of the whole analog residual's energy, so a ranged
  // analog apply would change the quantization grid everywhere. Only the
  // quantize/cancel sweeps downstream of the AGC (and the residual-gain
  // application pass) are rangeable; the full capture is one range.
  const std::size_t capture_len = rx.size();
  const dsp::sample_range roi{std::min(config.roi.begin, capture_len),
                              std::min(config.roi.end, capture_len)};
  const std::array<dsp::sample_range, 1> whole{{{0, capture_len}}};
  std::array<dsp::sample_range, 2> roi_union{};
  // A front-end hook mutates the whole analog-cancelled waveform, so it
  // keeps every pass full-range.
  std::span<const dsp::sample_range> apply_ranges = whole;
  if (!roi.empty() && !config.front_end_hook)
    apply_ranges = std::span<const dsp::sample_range>(
        roi_union.data(),
        union_ranges({silent_begin, silent_end}, roi, roi_union));
  // Residual-gain tracking fits whole-capture statistics, so it keeps the
  // quantize/cancel sweeps full-length too; its final gain-application
  // pass still runs over apply_ranges only.
  const std::span<const dsp::sample_range> sweep_ranges =
      config.track_residual_gain ? std::span<const dsp::sample_range>(whole)
                                 : apply_ranges;

  // --- Analog stage (before the ADC) ---
  // The AGC's full-scale choice needs the analog residual's energy and the
  // saturation flag its peak axis magnitude; the fused cancel returns both
  // from the same store loop (the energy bit-identical to a separate rms
  // pass), so the ADC stage below does not re-read the capture. A negative
  // energy marks both unknown (analog bypassed / hook ran).
  double after_analog_energy = -1.0;
  double after_analog_peak = 0.0;
  if (config.enable_analog) {
    scratch.analog.adapt(config.analog, tx_silent, rx_silent,
                         scratch.canceller.lin);
    after_analog_energy = scratch.analog.cancel_energy_into(
        tx, rx, after_analog, after_analog_peak);
  } else {
    after_analog.resize(rx.size());
    std::copy(rx.begin(), rx.end(), after_analog.begin());
  }
  result.analog_depth_db = cancellation_depth_db(
      rx_silent, std::span(after_analog).subspan(silent_begin,
                                                 silent_end - silent_begin));

  // --- Receive front end (downconverter) fault hook ---
  if (config.front_end_hook) {
    config.front_end_hook(std::span<cplx>(after_analog));
    after_analog_energy = -1.0;  // the hook mutated the residual
  }

  // --- AGC + ADC ---
  // With the digital stage enabled, only the adaptation window is digitized
  // here: the sweep ranges go through the digital stage's fused
  // quantize+cancel kernel below, which hides the quantizer's divide chain
  // under the cancellation convolution. Every sample still sees the
  // identical clamp/divide/round/scale sequence.
  adc_config adc = config.adc;
  // Per-axis clip events over the whole capture, OR-ed with the quantized
  // ranges' events (the OR reduction is order-independent, so the flag
  // equals a full quantization sweep's). When the fused analog cancel
  // measured the residual's peak, one compare covers every sample: a
  // clip event is `v < -fs || v > fs` for some axis value v, i.e.
  // |v| > fs (abs is exact and fs >= 1e-30), and a NaN v never clips —
  // exactly `peak > fs` for the NaN-ignoring peak. Otherwise a
  // compare-only scan covers the regions the sweep ranges skip (none for
  // a full-range sweep).
  unsigned clipped_any = 0;
  if (config.enable_adc) {
    const bool peak_known = after_analog_energy >= 0.0;
    adc.full_scale =
        peak_known ? agc_full_scale_from_energy(after_analog_energy,
                                                after_analog.size(),
                                                config.agc_headroom)
                   : agc_full_scale(after_analog, config.agc_headroom);
    if (peak_known) {
      clipped_any |= static_cast<unsigned>(after_analog_peak > adc.full_scale);
    } else {
      std::size_t cursor = 0;
      for (const dsp::sample_range& r : sweep_ranges) {
        saturation_scan_range(after_analog.data(), cursor, r.begin, adc,
                              clipped_any);
        cursor = r.end;
      }
      saturation_scan_range(after_analog.data(), cursor, capture_len, adc,
                            clipped_any);
    }
    digitized.resize(rx.size());
    if (config.enable_digital) {
      unsigned window_clip = 0;  // re-quantized by the fused sweep below
      quantize_range_saturation(after_analog.data(), silent_begin, silent_end,
                                adc, digitized.data(), window_clip);
    } else {
      for (const dsp::sample_range& r : sweep_ranges)
        quantize_range_saturation(after_analog.data(), r.begin, r.end, adc,
                                  digitized.data(), clipped_any);
    }
  } else {
    // O(1) buffer exchange: after_analog's storage becomes next call's
    // scratch; its contents are stale from here on.
    std::swap(digitized, after_analog);
  }

  // --- Digital stage (adapted on the silent period only) ---
  if (config.enable_digital) {
    digital_canceller& digital = scratch.digital;
    digital.adapt(config.digital, tx_silent,
                  std::span(digitized).subspan(silent_begin,
                                               silent_end - silent_begin),
                  scratch.canceller);
    // With the ADC enabled the kernel quantizes the analog residual
    // itself; without it, digitized already holds that residual.
    fused_adc fused{adc, digitized, clipped_any};
    digital.cancel_into(tx, config.enable_adc ? after_analog : digitized,
                        sweep_ranges, cleaned, scratch.canceller,
                        config.enable_adc ? &fused : nullptr);
  } else {
    std::swap(cleaned, digitized);
  }
  if (config.enable_adc) {
    result.adc_saturated = clipped_any != 0;
    if (result.adc_saturated)
      obs::count(config.collector, obs::probe::adc_saturated);
  }

  // --- Residual gain tracking (see receive_chain_config) ---
  // Tracks against the DIGITAL stage's SI model (digitized - cleaned): the
  // front end sits after the analog canceller, so every LO/IQ blemish acts
  // on the analog residual, whose tx-correlated part is exactly what the
  // digital taps captured on the silent window.
  //
  // Two passes:
  //  1. A single widely-linear (a, conj) fit over the WHOLE buffer. The IQ
  //     image coefficient of the front end is static, and while the
  //     BPSK-subcarrier OFDM excitation is strongly improper over any one
  //     symbol (the E[x^2] comb makes model and conjugate near-collinear
  //     per block), the comb lands on the null DC/Nyquist subcarriers when
  //     averaged over the full packet — globally the 2x2 solve is well
  //     conditioned even though per-block it is not.
  //  2. A per-block complex gain on the model alone, linearly interpolated
  //     between block centres: absorbs LO rotation (CFO/phase noise) that
  //     is locally linear in time, leaving only second-order residue.
  // The backscatter's projection on the model is ~SI - 90 dB, so neither
  // pass touches the tag signal.
  //
  // fd/chain_kernels.cpp runs this as three sweeps: the whole-capture fit,
  // its correction fused with the per-block gain fit, and the interpolated
  // gain application. Only the last writes samples as a pure function of
  // each index, so it alone honours the roi: samples outside silent ∪ roi
  // stay pass-1-corrected, which the roi contract marks unreadable anyway.
  if (config.track_residual_gain && config.enable_digital &&
      cleaned.size() > 1)
    detail::track_residual_gain(digitized, cleaned, config.gain_block,
                                apply_ranges, scratch.gain_a, scratch.centre);

  const auto cleaned_silent =
      std::span(cleaned).subspan(silent_begin, silent_end - silent_begin);
  result.total_depth_db = cancellation_depth_db(rx_silent, cleaned_silent);
  result.residual_power = dsp::mean_power(cleaned_silent);
  obs::observe(config.collector, obs::probe::analog_depth_db,
               result.analog_depth_db);
  obs::observe(config.collector, obs::probe::total_depth_db,
               result.total_depth_db);

  // ROI accounting: only emitted when a roi was configured, so the
  // roi-unset export (runtime gauges included) stays byte-identical to the
  // pre-ROI chain. runtime.*-prefixed gauges are excluded from the
  // deterministic telemetry digests by convention.
  if (!roi.empty()) {
    // With neither the ADC nor the digital stage the whole capture passes
    // through.
    std::size_t processed = capture_len;
    if (config.enable_adc || config.enable_digital) {
      processed = 0;
      for (const dsp::sample_range& r : sweep_ranges) processed += r.size();
    }
    result.roi_samples_processed = processed;
    result.roi_samples_skipped = capture_len - processed;
    obs::set(config.collector, obs::probe::roi_samples_processed,
             static_cast<double>(processed));
    obs::set(config.collector, obs::probe::roi_samples_skipped,
             static_cast<double>(result.roi_samples_skipped));
    obs::set(config.collector, obs::probe::roi_coverage,
             static_cast<double>(processed) / static_cast<double>(capture_len));
  }
  return result;
}

}  // namespace backfi::fd
