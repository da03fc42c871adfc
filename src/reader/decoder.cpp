#include "reader/decoder.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "dsp/fir.h"
#include "dsp/linalg.h"
#include "dsp/math_util.h"
#include "obs/collector.h"
#include "phy/constellation.h"
#include "phy/convolutional.h"
#include "phy/crc32.h"
#include "reader/decoder_kernels.h"
#include "reader/mrc.h"

namespace backfi::reader {

namespace {

// Per-reason failure accounting: the aggregate counter plus one
// "reader.failure.<reason>" row per reason, so campaigns can tell a sync
// loss from a CRC storm without re-running. The catalogue lists those rows
// in decode_failure order, starting after `none`.
static_assert(static_cast<std::size_t>(obs::probe::failure_crc_failed) -
                      static_cast<std::size_t>(
                          obs::probe::failure_empty_input) + 1 ==
                  static_cast<std::size_t>(decode_failure::crc_failed),
              "one reader.failure.* probe per decode_failure except none");

void note_failure(obs::collector* c, decode_failure failure) {
  if (!c || failure == decode_failure::none) return;
  c->count(obs::probe::decode_failures);
  c->count(static_cast<obs::probe>(
      static_cast<std::size_t>(obs::probe::failure_empty_input) +
      static_cast<std::size_t>(failure) - 1));
}
}  // namespace

const char* to_string(decode_failure failure) {
  switch (failure) {
    case decode_failure::none: return "none";
    case decode_failure::empty_input: return "empty_input";
    case decode_failure::size_mismatch: return "size_mismatch";
    case decode_failure::origin_out_of_range: return "origin_out_of_range";
    case decode_failure::zero_payload: return "zero_payload";
    case decode_failure::payload_too_long: return "payload_too_long";
    case decode_failure::estimation_window_too_short:
      return "estimation_window_too_short";
    case decode_failure::non_finite_samples: return "non_finite_samples";
    case decode_failure::sync_not_found: return "sync_not_found";
    case decode_failure::insufficient_symbols: return "insufficient_symbols";
    case decode_failure::crc_failed: return "crc_failed";
  }
  return "unknown";
}

const char* to_string(config_error error) {
  switch (error) {
    case config_error::none: return "none";
    case config_error::zero_channel_taps: return "zero_channel_taps";
    case config_error::bad_sync_threshold: return "bad_sync_threshold";
    case config_error::bad_timing_search: return "bad_timing_search";
    case config_error::bad_ridge: return "bad_ridge";
    case config_error::bad_retry_scale: return "bad_retry_scale";
    case config_error::bad_tracking_gain: return "bad_tracking_gain";
  }
  return "unknown";
}

config_error decoder_config::validate() const {
  if (fb_taps == 0) return config_error::zero_channel_taps;
  if (!(sync_threshold > 0.0) || sync_threshold > 1.0)
    return config_error::bad_sync_threshold;
  if (timing_search < 0) return config_error::bad_timing_search;
  if (!std::isfinite(ridge) || ridge < 0.0) return config_error::bad_ridge;
  if (!std::isfinite(retry_search_scale) || retry_search_scale < 1.0)
    return config_error::bad_retry_scale;
  if (!std::isfinite(phase_tracking_gain) || phase_tracking_gain < 0.0 ||
      phase_tracking_gain > 1.0)
    return config_error::bad_tracking_gain;
  return config_error::none;
}

void validate_or_throw(const decoder_config& config, const char* where) {
  const config_error error = config.validate();
  if (error == config_error::none) return;
  std::string message = where;
  message += ": invalid decoder_config (";
  message += to_string(error);
  message += ")";
  throw std::invalid_argument(message);
}

backfi_decoder::backfi_decoder(const tag::tag_config& tag_config,
                               const decoder_config& config)
    : tag_config_(tag_config), config_(config) {
  validate_or_throw(config_, "backfi_decoder");
  constellation_ =
      &phy::psk_constellation(tag::psk_order(tag_config_.rate.modulation));
  by_label_.resize(constellation_->points.size());
  for (std::size_t i = 0; i < by_label_.size(); ++i)
    by_label_[constellation_->labels[i]] = i;
  const tag::tag_device device(tag_config_);
  sync_labels_ = device.sync_labels();
  const std::size_t sps = device.samples_per_symbol();
  guard_ = std::min<std::size_t>(config_.fb_taps - 1, sps > 2 ? sps - 2 : 1);
  // Widest timing search any retry attempt can reach: decode() widens by
  // the same schedule, so a retry never scans outside the read window.
  double width = static_cast<double>(std::max(config_.timing_search, 0));
  for (std::size_t a = 0; a < config_.sync_retries; ++a)
    width *= std::max(config_.retry_search_scale, 1.0);
  max_search_ = static_cast<std::size_t>(static_cast<int>(std::min(width, 1e6)));
  sync_points_.resize(sync_labels_.size());
  for (std::size_t i = 0; i < sync_labels_.size(); ++i)
    sync_points_[i] = constellation_->points[by_label_[sync_labels_[i]]];
}

cvec backfi_decoder::estimate_combined_channel(std::span<const cplx> x,
                                               std::span<const cplx> y,
                                               std::size_t preamble_begin,
                                               std::size_t preamble_end) const {
  cvec taps;
  dsp::fir_ls_workspace workspace;
  estimate_combined_channel_into(x, y, preamble_begin, preamble_end, taps,
                                 workspace);
  return taps;
}

bool backfi_decoder::estimate_combined_channel_into(
    std::span<const cplx> x, std::span<const cplx> y,
    std::size_t preamble_begin, std::size_t preamble_end, cvec& taps,
    dsp::fir_ls_workspace& workspace) const {
  const std::size_t limit = std::min(x.size(), y.size());
  const std::size_t end = std::min(preamble_end, limit);
  if (end <= preamble_begin) return false;
  // Shift the window back by (taps - 1) so the estimator sees the full
  // excitation history for every row it uses.
  const std::size_t history = config_.fb_taps - 1;
  const std::size_t start = preamble_begin >= history ? preamble_begin - history : 0;
  const std::size_t len = end - start;
  if (len < config_.fb_taps) return false;
  dsp::estimate_fir_least_squares_into(x.subspan(start, len),
                                       y.subspan(start, len), config_.fb_taps,
                                       config_.ridge, taps, workspace);
  return true;
}

std::optional<tag::frame> backfi_decoder::layout(
    std::size_t nominal_origin, std::size_t payload_bits) const {
  const std::optional<tag::frame> f =
      tag::frame_layout(tag_config_, payload_bits, nominal_origin);
  std::size_t search_end = 0;
  if (!f || __builtin_add_overflow(f->data_end, max_search_, &search_end))
    return std::nullopt;
  return f;
}

dsp::sample_range backfi_decoder::read_window_bounds(
    std::size_t capture_len, std::size_t nominal_origin,
    std::size_t payload_bits) const {
  // Mirror decode's early typed-error exits: those paths return before
  // touching a single y sample, so their window is empty.
  if (capture_len == 0 || nominal_origin >= capture_len || payload_bits == 0)
    return {};
  const std::optional<tag::frame> f = layout(nominal_origin, payload_bits);
  if (!f) return {};
  // The widest sync search together with the estimator's (taps - 1)
  // history reach-back bounds every sample index the decode pipeline
  // touches.
  const std::size_t history = config_.fb_taps - 1;
  const std::size_t window_lo =
      f->sync_start >= max_search_ + history
          ? f->sync_start - max_search_ - history
          : 0;
  const std::size_t scan_lo =
      std::min(std::min(f->preamble_start, window_lo), capture_len);
  const std::size_t scan_hi = std::min(capture_len, f->data_end + max_search_);
  if (scan_lo >= scan_hi) return {};
  return {scan_lo, scan_hi};
}

decode_result backfi_decoder::decode(std::span<const cplx> x,
                                     std::span<const cplx> y,
                                     std::size_t nominal_origin,
                                     std::size_t payload_bits,
                                     decoder_scratch* scratch_ptr) const {
  if (scratch_ptr == nullptr)
    throw std::invalid_argument("backfi_decoder::decode: scratch is required");
  decoder_scratch& scratch = *scratch_ptr;
  decode_result result;
  obs::timing_span decode_span(config_.collector, obs::probe::timing_decode);
  // --- Input validation: malformed captures return a typed failure ---
  if (x.empty() || y.empty()) {
    result.failure = decode_failure::empty_input;
    note_failure(config_.collector, result.failure);
    return result;
  }
  if (x.size() != y.size()) {
    result.failure = decode_failure::size_mismatch;
    note_failure(config_.collector, result.failure);
    return result;
  }
  if (nominal_origin >= x.size()) {
    result.failure = decode_failure::origin_out_of_range;
    note_failure(config_.collector, result.failure);
    return result;
  }
  if (payload_bits == 0) {
    result.failure = decode_failure::zero_payload;
    note_failure(config_.collector, result.failure);
    return result;
  }
  const std::optional<tag::frame> packet = layout(nominal_origin, payload_bits);
  if (!packet) {
    result.failure = decode_failure::payload_too_long;
    note_failure(config_.collector, result.failure);
    return result;
  }
  const std::size_t sps = packet->samples_per_symbol;
  const std::size_t preamble_begin = packet->preamble_start;
  const std::size_t sync_begin = packet->sync_start;
  const std::size_t data_begin = packet->data_start;
  const std::size_t data_end = packet->data_end;
  const std::size_t n_payload_symbols = packet->payload_symbols;

  {
    // The finite pre-check walks exactly the read-window bound — the same
    // derivation the receive chain's ROI comes from, so a windowed chain
    // never leaves an unchecked (possibly stale) sample readable.
    const dsp::sample_range window =
        read_window_bounds(y.size(), nominal_origin, payload_bits);
    if (!window.empty() &&
        !detail::all_finite_window(x, y, window.begin, window.end)) {
      result.failure = decode_failure::non_finite_samples;
      note_failure(config_.collector, result.failure);
      return result;
    }
  }

  const std::span<const cplx> sync_points(sync_points_);
  const phy::constellation& constellation = *constellation_;

  // --- 1+2. Channel estimation and sync timing, with re-acquisition:
  // each attempt widens the timing search (the estimation window shrinks
  // accordingly so it stays inside the constant-phase region at any
  // candidate offset). Attempt 0 failing its geometry checks is a typed
  // error; a widened attempt that no longer fits just stops the retries.
  int best_offset = 0;
  double best_score = -1.0;
  cplx best_reference{1.0, 0.0};
  std::size_t window_begin = 0;  // absolute index of scratch.products[0]
  double search_width = static_cast<double>(std::max(config_.timing_search, 0));
  for (std::size_t attempt = 0; attempt <= config_.sync_retries; ++attempt,
                   search_width *= std::max(config_.retry_search_scale, 1.0)) {
    const int search =
        static_cast<int>(std::min(search_width, 1e6));
    // The payload must fit even at the maximum timing offset, and the
    // negative extreme must not run off the front of the sync region.
    const bool fits =
        data_end + static_cast<std::size_t>(search) <= y.size() &&
        sync_begin >= static_cast<std::size_t>(search);
    const std::size_t margin = static_cast<std::size_t>(search) + config_.fb_taps;
    const std::size_t est_begin = preamble_begin + margin;
    const std::size_t est_end = sync_begin > margin ? sync_begin - margin : 0;
    const bool estimable = est_end > est_begin + 4 * config_.fb_taps;
    if (!fits || !estimable) {
      if (attempt == 0) {
        result.failure = !fits ? decode_failure::payload_too_long
                               : decode_failure::estimation_window_too_short;
        note_failure(config_.collector, result.failure);
        return result;
      }
      break;  // cannot widen further; keep the best narrow-scan score
    }
    ++result.sync_attempts;
    obs::count(config_.collector, obs::probe::sync_attempts);

    // Estimate into the scratch-owned taps buffer (reused across calls);
    // the result keeps its own copy since it outlives the scratch.
    if (!estimate_combined_channel_into(x, y, est_begin, est_end, scratch.h_fb,
                                        scratch.ls)) {
      result.failure = decode_failure::estimation_window_too_short;
      note_failure(config_.collector, result.failure);
      return result;
    }
    result.h_fb.assign(scratch.h_fb.begin(), scratch.h_fb.end());
    // Expected unmodulated backscatter — only over the window the MRC
    // stages below actually read (`fits` bounds it inside the capture).
    // `mrc_precompute` then folds y * conj(yhat) and |yhat|^2 into scratch
    // once per attempt, so each of the 2*search+1 candidate offsets below
    // is just contiguous sums over those buffers.
    window_begin = sync_begin - static_cast<std::size_t>(search);
    const std::size_t window_end =
        data_end + static_cast<std::size_t>(search);
    dsp::convolve_same_range_into(x, result.h_fb, window_begin, window_end,
                                  scratch.yhat);
    mrc_precompute(y, scratch.yhat, window_begin, window_end, scratch.products,
                   scratch.weights);
    scratch.sync_estimates.resize(sync_points.size());

    for (int offset = -search; offset <= search; ++offset) {
      const std::size_t start = sync_begin + static_cast<std::size_t>(
                                    static_cast<std::ptrdiff_t>(offset));
      mrc_symbol_estimates_from_products(
          scratch.products, scratch.weights, window_begin, y.size(), start,
          sps, sync_points.size(), guard_, scratch.sync_estimates);
      const std::span<const cplx> m(scratch.sync_estimates);
      cplx corr{0.0, 0.0};
      double energy = 0.0;
      for (std::size_t i = 0; i < m.size(); ++i) {
        corr += m[i] * std::conj(sync_points[i]);
        energy += std::norm(m[i]);
      }
      const double denom = std::sqrt(energy * static_cast<double>(m.size()));
      const double score = denom > 0.0 ? std::abs(corr) / denom : 0.0;
      if (score > best_score) {
        best_score = score;
        best_offset = offset;
        best_reference = corr / static_cast<double>(m.size());
      }
    }
    if (best_score >= config_.sync_threshold) break;
  }
  result.timing_offset = best_offset;
  result.sync_correlation = std::max(best_score, 0.0);
  obs::observe(config_.collector, obs::probe::sync_correlation,
               result.sync_correlation);
  obs::observe(config_.collector, obs::probe::timing_offset,
               static_cast<double>(result.timing_offset));
  if (best_score < config_.sync_threshold) {
    result.failure = decode_failure::sync_not_found;
    note_failure(config_.collector, result.failure);
    return result;
  }
  result.sync_found = true;

  // Common complex correction from the sync word (absorbs estimation bias
  // in amplitude and phase).
  const cplx correction =
      std::abs(best_reference) > 1e-12 ? best_reference : cplx{1.0, 0.0};

  // --- 3. Noise variance from the corrected sync symbols ---
  const std::size_t sync_start_best =
      sync_begin + static_cast<std::size_t>(
                       static_cast<std::ptrdiff_t>(best_offset));
  double noise_var = 0.0;
  {
    mrc_symbol_estimates_from_products(
        scratch.products, scratch.weights, window_begin, y.size(),
        sync_start_best, sps, sync_points.size(), guard_,
        scratch.sync_estimates);
    const std::span<const cplx> m(scratch.sync_estimates);
    for (std::size_t i = 0; i < m.size(); ++i)
      noise_var += std::norm(m[i] / correction - sync_points[i]);
    noise_var /= static_cast<double>(m.size());
    noise_var = std::max(noise_var, 1e-12);
  }
  result.post_mrc_snr_db = -dsp::to_db(noise_var);
  obs::observe(config_.collector, obs::probe::post_mrc_snr_db,
               result.post_mrc_snr_db);

  // --- 4. MRC + demodulation of the payload ---
  const std::size_t data_start_best =
      data_begin + static_cast<std::size_t>(
                       static_cast<std::ptrdiff_t>(best_offset));
  cvec symbols(n_payload_symbols);
  mrc_symbol_estimates_from_products(scratch.products, scratch.weights,
                                     window_begin, y.size(), data_start_best,
                                     sps, n_payload_symbols, guard_, symbols);
  for (cplx& m : symbols) m /= correction;

  // Decision-directed phase tracking across the payload: each sliced
  // decision feeds a first-order loop that de-rotates subsequent symbols,
  // so rotation accumulating since the sync word (CFO, phase noise, tag
  // clock wander) stays bounded instead of walking across the decision
  // boundary on long packets.
  scratch.track_labels.clear();
  if (config_.phase_tracking) {
    // The sliced decisions are kept so the EVM loop below reuses them
    // instead of re-slicing the exact same (final) symbol values.
    scratch.track_labels.resize(n_payload_symbols);
    const double gain = config_.phase_tracking_gain;
    cplx rot{1.0, 0.0};
    std::size_t s = 0;
    for (cplx& m : symbols) {
      m *= rot;
      const std::uint32_t label = constellation.slice(m);
      scratch.track_labels[s++] = label;
      const cplx ref = constellation.points[by_label_[label]];
      const double err = std::arg(m * std::conj(ref));
      rot *= std::polar(1.0, -gain * err);
    }
  }

  // --- 5. Soft decoding ---
  decode_result bits = decode_from_symbols_impl(
      symbols, noise_var, payload_bits, scratch, scratch.track_labels);
  bits.sync_found = result.sync_found;
  bits.sync_attempts = result.sync_attempts;
  bits.timing_offset = result.timing_offset;
  bits.sync_correlation = result.sync_correlation;
  bits.post_mrc_snr_db = result.post_mrc_snr_db;
  bits.h_fb = std::move(result.h_fb);
  bits.symbol_estimates = std::move(symbols);
  return bits;
}

decode_result backfi_decoder::decode_from_symbols(
    std::span<const cplx> symbols, double noise_var, std::size_t payload_bits,
    decoder_scratch* scratch) const {
  if (scratch == nullptr)
    throw std::invalid_argument(
        "backfi_decoder::decode_from_symbols: scratch is required");
  decode_result result;
  if (payload_bits == 0) {
    result.failure = decode_failure::zero_payload;
    note_failure(config_.collector, result.failure);
    return result;
  }
  if (payload_bits > tag::max_payload_bits) {
    result.failure = decode_failure::payload_too_long;
    note_failure(config_.collector, result.failure);
    return result;
  }
  if (symbols.empty()) {
    result.failure = decode_failure::empty_input;
    note_failure(config_.collector, result.failure);
    return result;
  }
  return decode_from_symbols_impl(symbols, noise_var, payload_bits, *scratch,
                                  {});
}

decode_result backfi_decoder::decode_from_symbols_impl(
    std::span<const cplx> symbols, double noise_var, std::size_t payload_bits,
    decoder_scratch& scratch,
    std::span<const std::uint32_t> tracked_labels) const {
  decode_result result;

  // EVM against sliced points (label -> point index via the member table).
  // When the phase tracker already sliced these exact symbol values its
  // decisions are reused; slicing again would return the same labels.
  const phy::constellation& constellation = *constellation_;
  {
    double acc = 0.0;
    if (tracked_labels.size() == symbols.size()) {
      for (std::size_t i = 0; i < symbols.size(); ++i)
        acc += std::norm(symbols[i] -
                         constellation.points[by_label_[tracked_labels[i]]]);
    } else {
      for (const cplx& m : symbols) {
        const std::uint32_t label = constellation.slice(m);
        acc += std::norm(m - constellation.points[by_label_[label]]);
      }
    }
    result.evm_rms = std::sqrt(acc / std::max<std::size_t>(symbols.size(), 1));
    obs::observe(config_.collector, obs::probe::evm_rms, result.evm_rms);
  }

  const std::size_t info_bits = payload_bits + phy::crc32_width;
  const std::size_t coded_bits =
      phy::coded_length(info_bits, tag_config_.rate.coding);
  std::vector<double>& soft = scratch.soft;
  constellation.demap_llr_stream_into(symbols, std::max(noise_var, 1e-12),
                                      soft);
  if (soft.size() < coded_bits) {
    result.failure = decode_failure::insufficient_symbols;
    note_failure(config_.collector, result.failure);
    return result;
  }
  soft.resize(coded_bits);  // drop symbol-padding bits

  phy::depuncture_into(soft, tag_config_.rate.coding,
                       2 * (info_bits + phy::conv_tail_bits), scratch.mother);
  const phy::bitvec& decoded = scratch.decoded;
  const double path_metric = phy::viterbi_decode(
      scratch.mother, info_bits, scratch.decisions, scratch.decoded);
  // Normalize by trellis steps so the confidence probe is comparable
  // across payload lengths.
  obs::observe(config_.collector, obs::probe::viterbi_path_metric,
               path_metric /
                   static_cast<double>(info_bits + phy::conv_tail_bits));
  result.decoded = true;
  result.crc_ok = phy::check_crc32(decoded);
  result.failure =
      result.crc_ok ? decode_failure::none : decode_failure::crc_failed;
  note_failure(config_.collector, result.failure);
  result.payload.assign(decoded.begin(), decoded.begin() + payload_bits);
  return result;
}

}  // namespace backfi::reader
