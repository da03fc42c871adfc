#include "sim/stream_sim.h"

#include <algorithm>
#include <cmath>

#include "dsp/invalid_config.h"
#include "sim/synthesis.h"

namespace backfi::sim {

config_error stream_scenario_config::validate() const {
  const config_error base = scenario.validate();
  if (base != config_error::none) return base;
  if (n_packets == 0) return config_error::zero_stream_packets;
  if (threads < 1 || threads > 2) return config_error::bad_stream_threads;
  if (queue_capacity == 0 || queue_capacity > dsp::max_ring_capacity)
    return config_error::bad_stream_queue;
  if (!std::isfinite(forward_drift.coherence_packets) ||
      !std::isfinite(lo_drift.step_std_rad) || lo_drift.step_std_rad < 0.0)
    return config_error::bad_drift;
  return config_error::none;
}

void validate_or_throw(const stream_scenario_config& config,
                       const char* where) {
  const config_error error = config.validate();
  if (error != config_error::none)
    dsp::throw_invalid_config(where, "stream_scenario_config",
                              to_string(error));
}

stream_capture build_stream_capture(const stream_scenario_config& config) {
  validate_or_throw(config, "build_stream_capture");
  const scenario_config& sc = config.scenario;
  dsp::rng gen(sc.seed);

  stream_capture cap;
  auto channels =
      channel::draw_backscatter_channels(sc.budget, sc.tag_distance_m, gen);
  // Drift innovations come from the exact distribution h_f was drawn from,
  // so the stream stays statistically the same link at every packet.
  const channel::multipath_profile drift_profile = channel::tag_link_profile(
      channel::one_way_gain_db(sc.budget, sc.tag_distance_m));
  impair::lo_drift_state lo;

  const std::size_t ex_len = reader::excitation_length(sc.excitation);
  const std::size_t gap = config.gap_us * samples_per_us;
  const std::size_t total = config.n_packets * (ex_len + gap);
  cap.x.assign(total, cplx{0.0, 0.0});
  cap.y.assign(total, cplx{0.0, 0.0});
  cap.schedule.reserve(config.n_packets);
  cap.payloads.resize(config.n_packets);
  cap.woke.assign(config.n_packets, 0);

  synthesized_packet pkt;
  std::size_t offset = 0;
  for (std::size_t k = 0; k < config.n_packets; ++k, offset += ex_len + gap) {
    // The caller's steps of the draw-order contract (sim/synthesis.h):
    // payload seed, then the channel step (drift innovation, LO step).
    const std::uint64_t payload_seed = gen.next_u64();
    if (k > 0)
      channel::evolve_multipath(channels.h_f, drift_profile,
                                config.forward_drift, gen);
    const double theta = lo.step(config.lo_drift, gen);
    const auto y = std::span<cplx>(cap.y).subspan(offset, ex_len + gap);
    synthesize_packet(sc, payload_seed, channels, theta, /*faults=*/{},
                      offset, y, gen, pkt);
    std::ranges::copy(pkt.ex.samples, cap.x.begin() + offset);
    cap.woke[k] = pkt.wake.woke;
    if (pkt.wake.woke) cap.payloads[k] = std::move(pkt.payload);
    cap.schedule.push_back(pkt.schedule);
  }
  cap.final_h_f = std::move(channels.h_f);
  cap.final_lo_phase_rad = lo.phase_rad;
  return cap;
}

namespace {

stream_trial_result collect_outcomes(
    const stream_capture& cap,
    const std::vector<reader::stream_packet_result>& results) {
  stream_trial_result out;
  out.packets.resize(cap.schedule.size());
  for (std::size_t i = 0; i < cap.schedule.size(); ++i) {
    stream_packet_outcome& o = out.packets[i];
    const reader::stream_packet_result& r = results[i];
    o.woke = cap.woke[i] != 0;
    o.dropped = r.dropped;
    o.sync_found = r.decoded.sync_found;
    o.decoded = r.decoded.decoded;
    o.crc_ok = r.decoded.crc_ok;
    if (o.decoded) {
      o.payload = r.decoded.payload;
      if (o.woke)
        o.bit_errors = phy::hamming_distance(o.payload, cap.payloads[i]);
    }
    if (o.dropped) ++out.packets_dropped;
    if (o.decoded) ++out.packets_decoded;
    if (o.crc_ok) ++out.crc_ok;
    out.bit_errors_total += o.bit_errors;
  }
  return out;
}

}  // namespace

stream_trial_result run_stream_trial(const stream_scenario_config& config) {
  validate_or_throw(config, "run_stream_trial");
  const stream_capture cap = build_stream_capture(config);
  const scenario_config& sc = config.scenario;

  reader::stream_config scfg;
  scfg.tag = sc.tag;
  scfg.decoder = sc.decoder;
  scfg.chain = sc.chain;
  scfg.threads = config.threads;
  scfg.queue_capacity = config.queue_capacity;
  scfg.overflow = config.overflow;
  scfg.collector = sc.collector;

  reader::stream_session session(cap.x, cap.y, cap.schedule, scfg);
  const std::size_t chunk =
      config.feed_chunk_samples > 0 ? config.feed_chunk_samples : cap.y.size();
  for (std::size_t fed = 0; fed < cap.y.size(); fed += chunk)
    session.feed(std::min(chunk, cap.y.size() - fed));
  session.finish();

  stream_trial_result out = collect_outcomes(cap, session.results());
  out.stats = session.stats();
  return out;
}

stream_trial_result run_stream_batch_reference(
    const stream_scenario_config& config) {
  validate_or_throw(config, "run_stream_batch_reference");
  const stream_capture cap = build_stream_capture(config);
  const scenario_config& sc = config.scenario;

  fd::receive_chain_config chain_cfg = sc.chain;
  chain_cfg.collector = sc.collector;
  reader::decoder_config dec_cfg = sc.decoder;
  dec_cfg.collector = sc.collector;
  const reader::backfi_decoder decoder(sc.tag, dec_cfg);
  fd::receive_chain_scratch chain_scratch;
  reader::decoder_scratch decode_scratch;

  std::vector<reader::stream_packet_result> results(cap.schedule.size());
  for (std::size_t i = 0; i < cap.schedule.size(); ++i) {
    const reader::stream_packet& p = cap.schedule[i];
    const std::size_t len = p.end - p.begin;
    const auto xseg = std::span<const cplx>(cap.x).subspan(p.begin, len);
    const auto yseg = std::span<const cplx>(cap.y).subspan(p.begin, len);
    results[i].index = i;
    results[i].chain =
        fd::run_receive_chain(xseg, yseg, p.wake_end - p.begin,
                              p.silent_end - p.begin, chain_cfg, &chain_scratch);
    results[i].decoded = decoder.decode(
        xseg, std::span<const cplx>(chain_scratch.cleaned), p.wake_end - p.begin,
        p.payload_bits, &decode_scratch);
  }
  return collect_outcomes(cap, results);
}

}  // namespace backfi::sim
