// The BackFi backscatter decoder at the AP (paper Section 4.3):
//   1. estimate the combined forward-backward channel h_fb = h_f * h_b by
//      least squares over the tag's constant-phase estimation preamble;
//   2. recover symbol timing from the tag's known sync word (the tag's
//      wake detector fires with a few samples of jitter);
//   3. per payload symbol, MRC-estimate the phase (Eq. 7);
//   4. soft-demap the n-PSK symbols, depuncture, Viterbi-decode, check CRC.
//
// The decoder never asserts or reads out of range on malformed input:
// every exit carries a typed `decode_failure` so the MAC's link supervisor
// can distinguish "retry with a wider window" from "give up this packet".
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "dsp/linalg.h"
#include "dsp/types.h"
#include "phy/bits.h"
#include "tag/tag_device.h"

namespace backfi::obs {
class collector;
}  // namespace backfi::obs

namespace backfi::phy {
struct constellation;
}  // namespace backfi::phy

namespace backfi::reader {

/// Why a decode attempt stopped short of a CRC-verified payload.
enum class decode_failure : std::uint8_t {
  none,                   ///< payload recovered and CRC-verified
  empty_input,            ///< x or y empty
  size_mismatch,          ///< x and y lengths differ
  origin_out_of_range,    ///< nominal_origin at/past the buffer end
  zero_payload,           ///< payload_bits == 0
  payload_too_long,       ///< payload cannot fit in the capture (or in
                          ///< any: above tag::max_payload_bits)
  estimation_window_too_short,  ///< no room for the channel estimate
  non_finite_samples,     ///< NaN/Inf in the decode window
  sync_not_found,         ///< correlation below threshold after retries
  insufficient_symbols,   ///< fewer soft bits than the code needs
  crc_failed,             ///< Viterbi ran but the CRC rejected the payload
};

/// Display name, e.g. "sync_not_found".
const char* to_string(decode_failure failure);

struct decoder_config {
  /// Taps of the combined forward-backward channel estimate. The paper's
  /// short indoor channels make L+M about 4-6 at 50 ns spacing.
  static constexpr std::size_t fb_taps = 5;
  /// Timing search half-width [samples] around the nominal schedule
  /// (covers tag wake-detector jitter).
  static constexpr int timing_search = 24;
  /// Minimum normalized sync-word correlation to accept timing.
  static constexpr double sync_threshold = 0.55;
  /// LS ridge for the h_fb estimate (scaled by excitation energy).
  static constexpr double ridge = 1e-9;
  /// Timing re-acquisition: when the sync scan fails, retry up to
  /// `sync_retries` times with the search window widened by
  /// `retry_search_scale` each attempt (recovers tags whose wake detector
  /// fired far off the nominal schedule, e.g. under excitation
  /// starvation). The width stops growing at 10^6 samples; an attempt
  /// past that would rescan the same window, so the retries end there.
  /// `sync_retries` stays settable for
  /// RoiDecoderTest.ReadWindowWidensWithRetryScheduleAndNeverLeaksCapture,
  /// which proves the read window covers the widened reach.
  std::size_t sync_retries = 1;
  static constexpr double retry_search_scale = 3.0;
  /// Decision-directed per-symbol phase tracking: a first-order loop with
  /// gain `phase_tracking_gain` that absorbs slow residual rotation
  /// (reader CFO relative to the adapted canceller, oscillator phase
  /// noise, tag clock phase wander) which the single sync-word correction
  /// cannot. Costs a little noise enhancement at low SNR; the CRC still
  /// gates wrong decisions. `phase_tracking` stays settable for
  /// DecoderTest.PhaseTrackingAbsorbsSlowResidualRotation, which compares
  /// the loop against no loop.
  bool phase_tracking = true;
  static constexpr double phase_tracking_gain = 0.15;
  /// Observability sink (nullable): the decoder reports sync correlation,
  /// timing offset, post-MRC SNR, EVM, Viterbi path metric, per-reason
  /// failure counters and the reader.decode timing span through it. Null
  /// (the default) compiles to no-ops on the hot path.
  obs::collector* collector = nullptr;
};

struct decode_result {
  bool sync_found = false;   ///< sync word located above threshold
  bool decoded = false;      ///< pipeline ran to completion
  bool crc_ok = false;       ///< payload CRC-32 verified
  decode_failure failure = decode_failure::none;
  phy::bitvec payload;       ///< decoded payload (without CRC)
  int timing_offset = 0;     ///< samples relative to the nominal schedule
  std::size_t sync_attempts = 0;  ///< timing scans run (1 = no retry)
  double sync_correlation = 0.0;
  double post_mrc_snr_db = 0.0;  ///< SNR of the MRC symbol estimates
  double evm_rms = 0.0;          ///< RMS error vs the sliced PSK points
  cvec h_fb;                     ///< combined channel estimate
  cvec symbol_estimates;         ///< raw MRC outputs (payload symbols)
};

/// Caller-owned buffers of repeated decode() calls. One instance per worker
/// thread; contents are scratch only (no decode state carries across
/// calls). Once warm, a decode allocates only the three vectors its result
/// returns (payload, h_fb, symbol_estimates).
struct decoder_scratch {
  cvec yhat;                    ///< windowed expected backscatter
  cvec products;                ///< y * conj(yhat) over the sync/data window
  std::vector<double> weights;  ///< |yhat|^2 over the same window
  cvec sync_estimates;          ///< per-offset sync-word MRC outputs
  dsp::fir_ls_workspace ls;     ///< Gram/RHS buffers for the h_fb estimate
  cvec h_fb;                    ///< reusable h_fb taps (copied into results)
  std::vector<std::uint32_t> track_labels;  ///< phase-tracker slice decisions
  std::vector<double> soft;     ///< demapped LLRs (payload coded bits)
  std::vector<double> mother;   ///< depunctured mother-code metrics
  std::vector<std::uint64_t> decisions;  ///< Viterbi traceback, one word/step
  phy::bitvec decoded;          ///< Viterbi output (payload + CRC bits)
};

class backfi_decoder {
 public:
  backfi_decoder(const tag::tag_config& tag_config,
                 const decoder_config& config = {});

  /// Decode one backscatter packet.
  ///  x               the reader's own transmit samples (full timeline)
  ///  y               the receive samples after SI cancellation
  ///  nominal_origin  the reader's estimate of the tag's wake instant
  ///  payload_bits    expected payload size (link-layer agreed)
  ///  scratch         the caller's reusable buffers (required: a null
  ///                  pointer throws std::invalid_argument); results never
  ///                  depend on their prior contents
  decode_result decode(std::span<const cplx> x, std::span<const cplx> y,
                       std::size_t nominal_origin, std::size_t payload_bits,
                       decoder_scratch* scratch) const;

  /// The closed-open absolute sample range of y that decode() may read for
  /// this (capture length, nominal origin, payload size) — the same span
  /// its up-front finite check walks, and therefore a superset of every
  /// sample the estimation window, the sync scan at the worst-case retry
  /// widening (timing_search × retry_search_scale^sync_retries capped at
  /// 10^6 samples, the exact width decode uses) and the MRC stages can touch. The receive chain
  /// takes this as its region of interest: samples outside it may hold
  /// stale contents without changing any decode result, provided they are
  /// finite or never materialized. Degenerate geometry (origin at/past the
  /// buffer, zero-size window, a payload whose sample span is not
  /// representable) returns an empty range; decode would fail with a typed
  /// error before reading samples there.
  dsp::sample_range read_window_bounds(std::size_t capture_len,
                                       std::size_t nominal_origin,
                                       std::size_t payload_bits) const;

  /// tag::frame_layout at the nominal origin, or std::nullopt (decode fails
  /// with payload_too_long, read_window_bounds is empty) when that frame or
  /// its end plus the widest sync search does not fit std::size_t.
  std::optional<tag::frame> layout(std::size_t nominal_origin,
                                   std::size_t payload_bits) const;

  /// Leading samples of each symbol that MRC skips: the first (fb_taps - 1)
  /// carry the previous symbol's phase (paper Fig. 6 "sample ignored").
  std::size_t mrc_guard() const { return guard_; }

  /// Demap, depuncture, Viterbi-decode and CRC-check a stream of per-symbol
  /// MRC estimates (used by the multi-antenna combiner, which produces the
  /// symbol stream itself). Fills decoded/crc_ok/payload/evm_rms. A
  /// payload above tag::max_payload_bits fails with payload_too_long, one
  /// that needs more coded bits than the symbols carry with
  /// insufficient_symbols. `scratch` is required as in decode(); once warm,
  /// a call allocates only the payload it returns.
  decode_result decode_from_symbols(std::span<const cplx> symbols,
                                    double noise_var, std::size_t payload_bits,
                                    decoder_scratch* scratch) const;

  /// Estimate h_fb from the constant-phase preamble window only (exposed
  /// for the cancellation/estimation micro-benchmarks, Fig. 11a). Returns
  /// an empty vector on a degenerate window.
  cvec estimate_combined_channel(std::span<const cplx> x, std::span<const cplx> y,
                                 std::size_t preamble_begin,
                                 std::size_t preamble_end) const;

  const decoder_config& config() const { return config_; }

 private:
  /// Shared demap/Viterbi/CRC tail used by decode() and decode_from_symbols,
  /// which both reject a zero payload and an empty symbol stream first.
  /// `scratch` supplies the demap, depuncture and Viterbi buffers;
  /// `tracked_labels`, when non-empty, carries the phase tracker's slice
  /// decisions so the EVM loop reuses them instead of re-slicing the same
  /// symbols.
  decode_result decode_from_symbols_impl(
      std::span<const cplx> symbols, double noise_var, std::size_t payload_bits,
      decoder_scratch& scratch,
      std::span<const std::uint32_t> tracked_labels) const;

  /// estimate_combined_channel through the reusable Gram/RHS workspace;
  /// returns false (and leaves `taps` untouched) on a degenerate window.
  bool estimate_combined_channel_into(std::span<const cplx> x,
                                      std::span<const cplx> y,
                                      std::size_t preamble_begin,
                                      std::size_t preamble_end, cvec& taps,
                                      dsp::fir_ls_workspace& workspace) const;

  tag::tag_config tag_config_;
  decoder_config config_;
  /// The widest timing search any retry reaches, and mrc_guard().
  std::size_t max_search_ = 0;
  std::size_t guard_ = 0;
  /// Per-config tables, built once by the constructor: the tag's PSK
  /// constellation, its label -> point-index table (labels are unique, so
  /// the EVM loop and phase tracker look points up instead of scanning),
  /// and the sync word as labels and as constellation points.
  const phy::constellation* constellation_ = nullptr;
  std::vector<std::size_t> by_label_;
  std::vector<std::uint32_t> sync_labels_;
  cvec sync_points_;
};

}  // namespace backfi::reader
