#include "replay.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <optional>

#include "channel/awgn.h"
#include "channel/drift.h"
#include "dsp/fir.h"
#include "dsp/math_util.h"
#include "dsp/vec_ops.h"
#include "phy/constellation.h"
#include "phy/convolutional.h"
#include "tag/wake_detector.h"

namespace backfi::bench {

namespace {

constexpr std::size_t samples_per_us = 20;

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_samples(const cvec& a, const cvec& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(cplx)) == 0);
}

}  // namespace

void layer_counts::add_chain(const fd::receive_chain_result& chain) {
  ++chain_runs;
  if (chain.cancellation_bypassed) ++bypassed;
  roi_processed += chain.roi_samples_processed;
  roi_skipped += chain.roi_samples_skipped;
}

void layer_counts::add_decode(const reader::decode_result& decoded) {
  ++decodes;
  sync_attempts += decoded.sync_attempts;
  if (decoded.crc_ok) ++crc_ok;
}

sim::trial_result replay_trial(const sim::scenario_config& config,
                               replay_workspace& ws, tracer* t,
                               layer_counts& counts) {
  scoped_span op(t, "sim.trial");
  sim::validate_or_throw(config, "replay_trial");
  sim::trial_result result;
  dsp::rng gen(config.seed);

  reader::excitation_config ex_cfg = config.excitation;
  ex_cfg.tag_id = config.tag.id;
  {
    scoped_span s(t, "reader.excitation");
    ex_cfg.payload_seed = gen.next_u64();
    reader::build_excitation_into(ex_cfg, ws.ex);
  }
  const reader::excitation& ex = ws.ex;

  channel::backscatter_channels channels;
  {
    scoped_span s(t, "channel.forward");
    channels = channel::draw_backscatter_channels(config.budget,
                                                  config.tag_distance_m, gen);
    channel::apply_channel_into(ex.samples, channels.h_f, ws.incident);
  }

  tag::wake_result wake;
  {
    scoped_span s(t, "tag.wake");
    const double incident_dbm = channel::incident_power_at_tag_dbm(
        config.budget, config.tag_distance_m);
    const std::size_t wake_window = std::min<std::size_t>(
        (ex_cfg.wake_bits + 4) * samples_per_us, ws.incident.size());
    wake = tag::detect_wake(std::span<const cplx>(ws.incident).first(wake_window),
                            ex.wake_preamble, incident_dbm);
  }
  result.woke = wake.woke;
  if (!wake.woke) return result;

  impair::impairment_plan faults = config.impairments;
  faults.seed = faults.seed * 0x9e3779b97f4a7c15ULL + config.seed;
  const tag::tag_device device(config.tag);
  phy::bitvec payload;
  {
    scoped_span s(t, "tag.modulate");
    const std::size_t jitter =
        config.tag_jitter_samples > 0
            ? gen.uniform_int(config.tag_jitter_samples + 1)
            : 0;
    payload = gen.random_bits(config.payload_bits);
    device.backscatter_into(payload, ex.samples.size(),
                            wake.preamble_end_sample + jitter, ws.tag_tx);
  }
  const tag::tag_transmission& tag_tx = ws.tag_tx;
  result.payload_symbols = tag_tx.n_payload_symbols;
  result.tag_energy_pj = tag_tx.energy_pj;
  if (tag_tx.n_payload_symbols < device.payload_symbols(config.payload_bits))
    return result;
  {
    scoped_span s(t, "impair");
    faults.apply_to_reflection(ws.tag_tx.reflection, tag_tx.preamble_start,
                               tag_tx.data_end);
  }

  {
    scoped_span s(t, "channel.backscatter");
    channel::apply_channel_into(ex.samples, channels.h_env, ws.rx);
    dsp::hadamard_into(ws.incident, tag_tx.reflection, ws.reflected);
    channel::apply_channel_into(ws.reflected, channels.h_b, ws.backscatter);
    dsp::add_in_place(ws.rx, ws.backscatter);
  }
  {
    scoped_span s(t, "channel.noise");
    channel::add_awgn(ws.rx, channels.noise_power, gen);
  }
  {
    scoped_span s(t, "impair");
    faults.apply_at_antenna(ws.rx);
  }

  // The trial decodes through a one-packet reader session: chain config
  // with the front-end hook, ROI = the decoder's read window unless a
  // post-cancellation hook rewrites the cleaned capture.
  const std::size_t silent_begin = ex.wake_end;
  const std::size_t silent_end =
      silent_begin + config.tag.silent_us * samples_per_us;
  fd::receive_chain_config chain_cfg = config.chain;
  if (faults.any_front_end()) {
    chain_cfg.front_end_hook = [&faults, t](std::span<cplx> samples) {
      scoped_span s(t, "impair");
      faults.apply_front_end(samples);
    };
  }
  const bool post_cancel = faults.any_post_cancellation();
  std::optional<reader::backfi_decoder> decoder;
  {
    scoped_span s(t, "reader.decode");
    decoder.emplace(config.tag, config.decoder);
    if (!post_cancel)
      chain_cfg.roi = decoder->read_window_bounds(ws.rx.size(), ex.wake_end,
                                                  config.payload_bits);
  }
  fd::receive_chain_result chain;
  {
    scoped_span s(t, "fd.receive_chain");
    chain = fd::run_receive_chain(ex.samples, ws.rx, silent_begin, silent_end,
                                  chain_cfg, &ws.chain);
  }
  if (post_cancel) {
    scoped_span s(t, "impair");
    faults.apply_post_cancellation(ex.samples, ws.chain.cleaned, silent_end);
  }
  counts.add_chain(chain);
  result.cancellation_bypassed = chain.cancellation_bypassed;
  result.link.analog_depth_db = chain.analog_depth_db;
  result.link.total_depth_db = chain.total_depth_db;
  result.link.residual_si_over_noise_db =
      dsp::to_db(std::max(chain.residual_power, 1e-30) /
                 std::max(channels.noise_power, 1e-30));

  reader::decode_result decoded;
  {
    scoped_span s(t, "reader.decode");
    decoded = decoder->decode(ex.samples, ws.chain.cleaned, ex.wake_end,
                              config.payload_bits, &ws.decoder);
  }
  counts.add_decode(decoded);
  result.sync_found = decoded.sync_found;
  result.decoded = decoded.decoded;
  result.crc_ok = decoded.crc_ok;
  result.failure = decoded.failure;
  result.link.post_mrc_snr_db = decoded.post_mrc_snr_db;
  result.link.sync_correlation = decoded.sync_correlation;
  result.link.evm_rms = decoded.evm_rms;
  if (decoded.decoded)
    result.bit_errors = phy::hamming_distance(decoded.payload, payload);

  {
    scoped_span s(t, "phy.slicer");
    if (decoded.sync_found && !decoded.symbol_estimates.empty()) {
      const auto& constellation =
          phy::psk_constellation(tag::psk_order(config.tag.rate.modulation));
      const std::size_t bps = tag::bits_per_symbol(config.tag.rate.modulation);
      phy::bitvec coded = phy::puncture(phy::conv_encode(tag_tx.info_bits),
                                        config.tag.rate.coding);
      while (coded.size() % bps != 0) coded.push_back(0);
      std::size_t errors = 0;
      for (std::size_t k = 0; k < decoded.symbol_estimates.size() &&
                              (k + 1) * bps <= coded.size();
           ++k) {
        std::uint32_t label = 0;
        for (std::size_t b = 0; b < bps; ++b)
          label = (label << 1) | (coded[k * bps + b] & 1u);
        if (constellation.slice(decoded.symbol_estimates[k]) != label) ++errors;
      }
      result.raw_symbol_errors = errors;
    }
  }

  {
    // sim::oracle_post_mrc_snr_db's body on a reused buffer, as the trial
    // runs it (the public wrapper allocates a capture-length buffer).
    scoped_span s(t, "sim.oracle");
    const std::size_t sps = device.samples_per_symbol();
    const std::size_t guard = std::min<std::size_t>(
        config.decoder.fb_taps - 1, sps > 2 ? sps - 2 : 1);
    const std::size_t end = std::min(tag_tx.data_end, ex.samples.size());
    result.link.expected_snr_db = -120.0;
    if (end > tag_tx.data_start) {
      const cvec h_fb = dsp::convolve(channels.h_f, channels.h_b);
      dsp::convolve_same_range_into(ex.samples, h_fb, tag_tx.data_start, end,
                                    ws.oracle_yhat);
      const double amplitude = dsp::db_to_amplitude(-config.tag.insertion_loss_db);
      const double mean_sig =
          dsp::mean_power(std::span<const cplx>(ws.oracle_yhat)
                              .subspan(tag_tx.data_start, end - tag_tx.data_start)) *
          amplitude * amplitude;
      const double snr = mean_sig * static_cast<double>(sps - guard) /
                         std::max(channels.noise_power, 1e-30);
      result.link.expected_snr_db = dsp::to_db(std::max(snr, 1e-12));
    }
  }

  if (result.crc_ok) {
    const double airtime_s =
        static_cast<double>(tag_tx.data_end - tag_tx.silent_start) *
        sample_period_s;
    result.effective_throughput_bps =
        static_cast<double>(config.payload_bits) / airtime_s;
  }
  return result;
}

bool same_trial(const sim::trial_result& a, const sim::trial_result& b) {
  return a.woke == b.woke && a.sync_found == b.sync_found &&
         a.decoded == b.decoded && a.crc_ok == b.crc_ok &&
         a.failure == b.failure &&
         a.cancellation_bypassed == b.cancellation_bypassed &&
         a.bit_errors == b.bit_errors &&
         a.raw_symbol_errors == b.raw_symbol_errors &&
         same_bits(a.link.post_mrc_snr_db, b.link.post_mrc_snr_db) &&
         same_bits(a.link.expected_snr_db, b.link.expected_snr_db) &&
         same_bits(a.link.residual_si_over_noise_db,
                   b.link.residual_si_over_noise_db) &&
         same_bits(a.link.analog_depth_db, b.link.analog_depth_db) &&
         same_bits(a.link.total_depth_db, b.link.total_depth_db) &&
         same_bits(a.link.sync_correlation, b.link.sync_correlation) &&
         same_bits(a.link.evm_rms, b.link.evm_rms) &&
         a.payload_symbols == b.payload_symbols &&
         same_bits(a.tag_energy_pj, b.tag_energy_pj) &&
         same_bits(a.effective_throughput_bps, b.effective_throughput_bps);
}

sim::stream_capture replay_stream_capture(
    const sim::stream_scenario_config& config, tracer* t) {
  sim::validate_or_throw(config, "replay_stream_capture");
  const sim::scenario_config& sc = config.scenario;
  dsp::rng gen(sc.seed);

  sim::stream_capture cap;
  const auto channels =
      channel::draw_backscatter_channels(sc.budget, sc.tag_distance_m, gen);
  cvec h_f = channels.h_f;
  const channel::multipath_profile drift_profile = channel::tag_link_profile(
      channel::one_way_gain_db(sc.budget, sc.tag_distance_m));
  impair::lo_drift_state lo;

  reader::excitation_config ex_cfg = sc.excitation;
  ex_cfg.tag_id = sc.tag.id;
  const std::size_t ex_len = reader::excitation_length(ex_cfg);
  const std::size_t gap = config.gap_us * samples_per_us;
  const std::size_t total = config.n_packets * (ex_len + gap);
  cap.x.assign(total, cplx{0.0, 0.0});
  cap.y.assign(total, cplx{0.0, 0.0});
  cap.schedule.reserve(config.n_packets);
  cap.payloads.resize(config.n_packets);
  cap.woke.assign(config.n_packets, 0);

  const tag::tag_device device(sc.tag);
  const double incident_dbm =
      channel::incident_power_at_tag_dbm(sc.budget, sc.tag_distance_m);
  reader::excitation ex;
  cvec incident, si, reflected, backscatter;
  tag::tag_transmission tag_tx;

  std::size_t offset = 0;
  for (std::size_t k = 0; k < config.n_packets; ++k, offset += ex_len + gap) {
    scoped_span op(t, "sim.stream.synth");
    double theta = 0.0;
    ex_cfg.payload_seed = gen.next_u64();
    {
      scoped_span s(t, "channel.forward");
      if (k > 0)
        channel::evolve_multipath(h_f, drift_profile, config.forward_drift, gen);
    }
    {
      scoped_span s(t, "impair");
      theta = lo.step(config.lo_drift, gen);
    }
    {
      scoped_span s(t, "reader.excitation");
      reader::build_excitation_into(ex_cfg, ex);
      std::copy(ex.samples.begin(), ex.samples.end(), cap.x.begin() + offset);
    }
    {
      scoped_span s(t, "channel.forward");
      channel::apply_channel_into(ex.samples, h_f, incident);
    }
    tag::wake_result wake;
    {
      scoped_span s(t, "tag.wake");
      const std::size_t wake_window = std::min<std::size_t>(
          (ex_cfg.wake_bits + 4) * samples_per_us, incident.size());
      wake = tag::detect_wake(std::span<const cplx>(incident).first(wake_window),
                              ex.wake_preamble, incident_dbm);
    }
    auto y_pkt = std::span<cplx>(cap.y).subspan(offset, ex_len);
    {
      scoped_span s(t, "channel.backscatter");
      channel::apply_channel_into(ex.samples, channels.h_env, si);
      std::copy(si.begin(), si.end(), y_pkt.begin());
    }
    if (wake.woke) {
      cap.woke[k] = 1;
      {
        scoped_span s(t, "tag.modulate");
        const std::size_t jitter =
            sc.tag_jitter_samples > 0 ? gen.uniform_int(sc.tag_jitter_samples + 1)
                                      : 0;
        cap.payloads[k] = gen.random_bits(sc.payload_bits);
        device.backscatter_into(cap.payloads[k], ex.samples.size(),
                                wake.preamble_end_sample + jitter, tag_tx);
      }
      {
        scoped_span s(t, "channel.backscatter");
        dsp::hadamard_into(incident, tag_tx.reflection, reflected);
        channel::apply_channel_into(reflected, channels.h_b, backscatter);
      }
      {
        scoped_span s(t, "impair");
        impair::apply_constant_phase(backscatter, theta);
      }
      {
        scoped_span s(t, "channel.backscatter");
        dsp::add_in_place(y_pkt, backscatter);
      }
    }
    {
      scoped_span s(t, "channel.noise");
      channel::add_awgn(std::span<cplx>(cap.y).subspan(offset, ex_len + gap),
                        channels.noise_power, gen);
    }
    cap.schedule.push_back(reader::stream_packet{
        .begin = offset,
        .end = offset + ex_len,
        .wake_end = offset + ex.wake_end,
        .silent_end = offset + ex.wake_end + sc.tag.silent_us * samples_per_us,
        .payload_bits = sc.payload_bits});
  }
  cap.final_h_f = std::move(h_f);
  cap.final_lo_phase_rad = lo.phase_rad;
  return cap;
}

bool same_capture(const sim::stream_capture& a, const sim::stream_capture& b) {
  if (!same_samples(a.x, b.x) || !same_samples(a.y, b.y) ||
      !same_samples(a.final_h_f, b.final_h_f) ||
      !same_bits(a.final_lo_phase_rad, b.final_lo_phase_rad) ||
      a.payloads != b.payloads || a.woke != b.woke ||
      a.schedule.size() != b.schedule.size())
    return false;
  for (std::size_t i = 0; i < a.schedule.size(); ++i) {
    const reader::stream_packet& p = a.schedule[i];
    const reader::stream_packet& q = b.schedule[i];
    if (p.begin != q.begin || p.end != q.end || p.wake_end != q.wake_end ||
        p.silent_end != q.silent_end || p.payload_bits != q.payload_bits)
      return false;
  }
  return true;
}

reader::stream_config session_config(const sim::stream_scenario_config& config) {
  reader::stream_config scfg;
  scfg.tag = config.scenario.tag;
  scfg.decoder = config.scenario.decoder;
  scfg.chain = config.scenario.chain;
  scfg.threads = config.threads;
  scfg.queue_capacity = config.queue_capacity;
  scfg.overflow = config.overflow;
  return scfg;
}

std::vector<reader::stream_packet_result> replay_stream_decode(
    const sim::stream_capture& cap, const reader::stream_config& config,
    replay_workspace& ws, tracer* t, layer_counts& counts,
    std::vector<double>* op_us) {
  const reader::backfi_decoder decoder(config.tag, config.decoder);
  fd::receive_chain_config chain_cfg = config.chain;
  const bool roi = config.restrict_to_roi && !config.post_cancel_hook;
  std::vector<reader::stream_packet_result> results(cap.schedule.size());
  for (std::size_t i = 0; i < cap.schedule.size(); ++i) {
    const std::int64_t t0 = now_ns();
    {
      scoped_span op(t, "reader.stream.packet");
      const reader::stream_packet& p = cap.schedule[i];
      const std::size_t len = p.end - p.begin;
      const auto xseg = std::span<const cplx>(cap.x).subspan(p.begin, len);
      const auto yseg = std::span<const cplx>(cap.y).subspan(p.begin, len);
      if (roi) {
        scoped_span s(t, "reader.decode");
        chain_cfg.roi = decoder.read_window_bounds(len, p.wake_end - p.begin,
                                                   p.payload_bits);
      }
      reader::stream_packet_result& out = results[i];
      out.index = i;
      {
        scoped_span s(t, "fd.receive_chain");
        out.chain = fd::run_receive_chain(xseg, yseg, p.wake_end - p.begin,
                                          p.silent_end - p.begin, chain_cfg,
                                          &ws.chain);
      }
      if (config.post_cancel_hook) {
        scoped_span s(t, "impair");
        config.post_cancel_hook(xseg, std::span<cplx>(ws.chain.cleaned),
                                p.silent_end - p.begin);
      }
      {
        scoped_span s(t, "reader.decode");
        out.decoded = decoder.decode(xseg, ws.chain.cleaned, p.wake_end - p.begin,
                                     p.payload_bits, &ws.decoder);
      }
      counts.add_chain(out.chain);
      counts.add_decode(out.decoded);
    }
    if (op_us) op_us->push_back(static_cast<double>(now_ns() - t0) * 1e-3);
  }
  return results;
}

bool same_packets(const std::vector<reader::stream_packet_result>& a,
                  const std::vector<reader::stream_packet_result>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const reader::decode_result& p = a[i].decoded;
    const reader::decode_result& q = b[i].decoded;
    const fd::receive_chain_result& c = a[i].chain;
    const fd::receive_chain_result& d = b[i].chain;
    if (a[i].dropped != b[i].dropped || p.sync_found != q.sync_found ||
        p.decoded != q.decoded || p.crc_ok != q.crc_ok ||
        p.failure != q.failure || p.timing_offset != q.timing_offset ||
        p.sync_attempts != q.sync_attempts || p.payload != q.payload ||
        !same_bits(p.sync_correlation, q.sync_correlation) ||
        !same_bits(p.post_mrc_snr_db, q.post_mrc_snr_db) ||
        !same_bits(p.evm_rms, q.evm_rms) ||
        !same_bits(c.analog_depth_db, d.analog_depth_db) ||
        !same_bits(c.total_depth_db, d.total_depth_db) ||
        !same_bits(c.residual_power, d.residual_power) ||
        c.cancellation_bypassed != d.cancellation_bypassed ||
        c.roi_samples_processed != d.roi_samples_processed ||
        c.roi_samples_skipped != d.roi_samples_skipped)
      return false;
  }
  return true;
}

}  // namespace backfi::bench
