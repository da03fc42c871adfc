#include "sim/backscatter_sim.h"

#include <algorithm>
#include <cmath>

#include "channel/awgn.h"
#include "dsp/fir.h"
#include "dsp/invalid_config.h"
#include "dsp/math_util.h"
#include "dsp/vec_ops.h"
#include "phy/constellation.h"
#include "reader/stream_session.h"
#include "sim/synthesis.h"

namespace backfi::sim {

const char* to_string(config_error error) {
  switch (error) {
    case config_error::none: return "none";
    case config_error::zero_payload: return "zero_payload";
    case config_error::bad_distance: return "bad_distance";
    case config_error::bad_symbol_rate: return "bad_symbol_rate";
    case config_error::empty_excitation: return "empty_excitation";
    case config_error::bad_bandwidth: return "bad_bandwidth";
    case config_error::bad_chain_config: return "bad_chain_config";
    case config_error::zero_stream_packets: return "zero_stream_packets";
    case config_error::bad_stream_threads: return "bad_stream_threads";
    case config_error::bad_stream_queue: return "bad_stream_queue";
    case config_error::bad_drift: return "bad_drift";
    case config_error::bad_tag_config: return "bad_tag_config";
  }
  return "unknown";
}

config_error scenario_config::validate() const {
  if (payload_bits == 0) return config_error::zero_payload;
  if (!std::isfinite(tag_distance_m) || tag_distance_m <= 0.0)
    return config_error::bad_distance;
  // Delegate the sub-config checks to their own validators; the tag's
  // symbol rate keeps its own value. The scenario adds Nyquist: at least
  // two samples per tag symbol.
  if (tag.rate.symbol_rate_hz > sample_rate_hz / 2.0)
    return config_error::bad_symbol_rate;
  switch (tag.validate()) {
    case tag::config_error::none: break;
    case tag::config_error::bad_symbol_rate:
      return config_error::bad_symbol_rate;
    default: return config_error::bad_tag_config;
  }
  if (!tag::frame_layout(tag, payload_bits))
    return config_error::bad_tag_config;
  if (chain.validate() != fd::config_error::none)
    return config_error::bad_chain_config;
  if (excitation.n_ppdus == 0) return config_error::empty_excitation;
  if (!(budget.bandwidth_hz > 0.0)) return config_error::bad_bandwidth;
  return config_error::none;
}

void validate_or_throw(const scenario_config& config, const char* where) {
  const config_error error = config.validate();
  if (error != config_error::none)
    dsp::throw_invalid_config(where, "scenario_config", to_string(error));
}

namespace {

// Windowed oracle core: only [data_begin, end) of the combined-channel
// estimate is ever read, so the convolution is evaluated on that range alone
// (bit-identical there to the full convolve_same) into a reusable buffer.
double oracle_post_mrc_snr_db_ws(std::span<const cplx> x,
                                 const channel::backscatter_channels& channels,
                                 double reflection_amplitude,
                                 std::size_t samples_per_symbol,
                                 std::size_t guard, std::size_t data_begin,
                                 std::size_t data_end, cvec& yhat) {
  const std::size_t end = std::min(data_end, x.size());
  if (end <= data_begin) return -120.0;
  const cvec h_fb = dsp::convolve(channels.h_f, channels.h_b);
  dsp::convolve_same_range_into(x, h_fb, data_begin, end, yhat);
  const double mean_sig =
      dsp::mean_power(
          std::span<const cplx>(yhat).subspan(data_begin, end - data_begin)) *
      reflection_amplitude * reflection_amplitude;
  const std::size_t usable = samples_per_symbol - guard;
  const double snr =
      mean_sig * static_cast<double>(usable) / std::max(channels.noise_power, 1e-30);
  return dsp::to_db(std::max(snr, 1e-12));
}

// Publish the process-wide synthesis replay-cache counters. They are
// execution-dependent (cache state outlives trials and is shared across
// lanes), so they live under runtime.* — excluded from the deterministic
// export profile alongside timing.*.
void report_replay_cache_gauges(obs::collector* c) {
  if (!c) return;
  using obs::probe;
  const channel::noise_cache_stats noise = channel::awgn_cache_stats();
  c->set(probe::noise_cache_hits, static_cast<double>(noise.hits));
  c->set(probe::noise_cache_misses, static_cast<double>(noise.misses));
  c->set(probe::noise_cache_entries, static_cast<double>(noise.entries));
  c->set(probe::noise_cache_bytes, static_cast<double>(noise.bytes));
  c->set(probe::noise_cache_refused, static_cast<double>(noise.refused));
  const reader::excitation_cache_stats_snapshot ex =
      reader::excitation_cache_stats();
  c->set(probe::excitation_cache_hits, static_cast<double>(ex.hits));
  c->set(probe::excitation_cache_misses, static_cast<double>(ex.misses));
  c->set(probe::excitation_cache_entries, static_cast<double>(ex.entries));
  c->set(probe::excitation_cache_bytes, static_cast<double>(ex.bytes));
  c->set(probe::excitation_cache_refused, static_cast<double>(ex.refused));
}

}  // namespace

double oracle_post_mrc_snr_db(std::span<const cplx> x,
                              const channel::backscatter_channels& channels,
                              double reflection_amplitude,
                              std::size_t samples_per_symbol, std::size_t guard,
                              std::size_t data_begin, std::size_t data_end) {
  cvec yhat;
  return oracle_post_mrc_snr_db_ws(x, channels, reflection_amplitude,
                                   samples_per_symbol, guard, data_begin,
                                   data_end, yhat);
}

trial_result run_backscatter_trial(const scenario_config& config) {
  thread_local trial_workspace workspace;
  return run_backscatter_trial(config, workspace);
}

trial_result run_backscatter_trial(const scenario_config& config,
                                   trial_workspace& ws) {
  validate_or_throw(config, "run_backscatter_trial");
  trial_result result;
  obs::collector* const c = config.collector;
  obs::count(c, obs::probe::trials);
  dsp::rng gen(config.seed);

  // --- Synthesis (the draw-order contract of sim/synthesis.h) ---
  const std::uint64_t payload_seed = gen.next_u64();
  const auto channels =
      channel::draw_backscatter_channels(config.budget, config.tag_distance_m, gen);
  // Per-trial impairment stream: re-mix the plan seed with the trial seed
  // so campaign sweeps draw independent burst/jitter realizations.
  impair::impairment_plan faults = config.impairments;
  faults.seed = faults.seed * 0x9e3779b97f4a7c15ULL + config.seed;
  ws.rx.resize(reader::excitation_length(config.excitation));
  synthesize_packet(config, payload_seed, channels, /*theta_rad=*/0.0,
                    faults, /*offset=*/0, ws.rx, gen, ws.packet);
  report_replay_cache_gauges(c);  // the synthesis is their last user
  const reader::excitation& ex = ws.packet.ex;
  const tag::tag_transmission& tag_tx = ws.packet.tag_tx;

  result.woke = ws.packet.wake.woke;
  if (!result.woke) return result;
  obs::count(c, obs::probe::trials_woke);
  result.payload_symbols = tag_tx.n_payload_symbols;
  result.tag_energy_pj = tag_tx.energy_pj;
  obs::observe(c, obs::probe::tag_energy_pj, result.tag_energy_pj);
  if (tag_tx.n_payload_symbols <
      tag::tag_device(config.tag).payload_symbols(config.payload_bits))
    return result;  // excitation too short for the payload

  // --- Self-interference cancellation over the silent window ---
  // The reader adapts over its nominal silent window: the tag stays silent
  // until (at least) wake_end + silent, so [wake_end, wake_end + silent) is
  // guaranteed backscatter-free. This is the first 16 us of the PPDU.
  // Front-end (downconverter) faults are injected inside the chain, between
  // the analog canceller and the ADC — their physical location.
  fd::receive_chain_config chain_cfg = config.chain;
  chain_cfg.collector = c;
  if (faults.any_front_end()) {
    chain_cfg.front_end_hook = [&faults](std::span<cplx> samples) {
      faults.apply_front_end(samples);
    };
  }
  // The reader's per-packet path, the same calls the stream session makes
  // for each packet: cancel_packet (chain over the decoder's read window,
  // unless a post-cancellation hook rewrites the whole cleaned capture),
  // then decode, both on the trial workspace's scratch.
  reader::decoder_config dec_cfg = config.decoder;
  dec_cfg.collector = c;
  const reader::backfi_decoder decoder(config.tag, dec_cfg);
  reader::post_cancel_fn post_cancel;
  if (faults.any_post_cancellation()) {
    post_cancel = [&faults](std::span<const cplx> tx, std::span<cplx> cleaned,
                            std::size_t window_end) {
      faults.apply_post_cancellation(tx, cleaned, window_end);
    };
  }
  const fd::receive_chain_result chain =
      reader::cancel_packet(ex.samples, ws.rx, ws.packet.schedule, decoder,
                            post_cancel, chain_cfg, ws.chain);
  result.cancellation_bypassed = chain.cancellation_bypassed;
  result.link.analog_depth_db = chain.analog_depth_db;
  result.link.total_depth_db = chain.total_depth_db;
  result.link.residual_si_over_noise_db =
      dsp::to_db(std::max(chain.residual_power, 1e-30) /
                 std::max(channels.noise_power, 1e-30));
  obs::observe(c, obs::probe::residual_si_over_noise_db,
               result.link.residual_si_over_noise_db);

  // --- BackFi decoding ---
  const reader::decode_result decoded =
      decoder.decode(ex.samples, ws.chain.cleaned, ex.wake_end,
                     config.payload_bits, &ws.decoder);
  result.sync_found = decoded.sync_found;
  result.decoded = decoded.decoded;
  result.crc_ok = decoded.crc_ok;
  result.failure = decoded.failure;
  result.link.post_mrc_snr_db = decoded.post_mrc_snr_db;
  result.link.sync_correlation = decoded.sync_correlation;
  result.link.evm_rms = decoded.evm_rms;
  if (result.sync_found) obs::count(c, obs::probe::trials_sync_found);
  if (result.decoded) obs::count(c, obs::probe::trials_decoded);
  if (result.crc_ok) obs::count(c, obs::probe::trials_crc_ok);
  if (decoded.decoded) {
    result.bit_errors =
        phy::hamming_distance(decoded.payload, ws.packet.payload);
    obs::count(c, obs::probe::bit_errors, result.bit_errors);
  }

  // Raw (pre-Viterbi) symbol errors for the Fig. 11b BER analysis: the
  // sliced estimates against the labels the tag emitted (all of its coded
  // stream, since a short excitation returned above).
  if (decoded.sync_found && !decoded.symbol_estimates.empty()) {
    const auto& constellation =
        phy::psk_constellation(tag::psk_order(config.tag.rate.modulation));
    const std::size_t n = std::min(decoded.symbol_estimates.size(),
                                   tag_tx.payload_labels.size());
    std::size_t errors = 0;
    for (std::size_t s = 0; s < n; ++s)
      if (constellation.slice(decoded.symbol_estimates[s]) !=
          tag_tx.payload_labels[s])
        ++errors;
    result.raw_symbol_errors = errors;
    obs::count(c, obs::probe::raw_symbol_errors, errors);
  }

  // --- Oracle SNR (the paper's VNA-measured expectation) ---
  result.link.expected_snr_db = oracle_post_mrc_snr_db_ws(
      ex.samples, channels,
      dsp::db_to_amplitude(-config.tag.insertion_loss_db),
      tag_tx.samples_per_symbol, decoder.mrc_guard(), tag_tx.data_start,
      tag_tx.data_end, ws.oracle_yhat);
  obs::observe(c, obs::probe::expected_snr_db, result.link.expected_snr_db);

  // --- Throughput accounting ---
  if (result.crc_ok) {
    const double airtime_s =
        static_cast<double>(tag_tx.data_end - tag_tx.silent_start) *
        sample_period_s;
    result.effective_throughput_bps =
        static_cast<double>(config.payload_bits) / airtime_s;
    obs::observe(c, obs::probe::effective_throughput_bps,
                 result.effective_throughput_bps);
  }

  return result;
}

}  // namespace backfi::sim
