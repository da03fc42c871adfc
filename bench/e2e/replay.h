// Traced replays: the library's composite entry points re-expressed as
// their sequence of public calls, each wrapped in a layer span.
//
//   replay_trial          sim::run_backscatter_trial, in its call and RNG
//                         draw order, with the stream session's ROI rule
//   replay_stream_capture sim::build_stream_capture, same draw order
//   replay_stream_decode  reader::stream_session's per-packet
//                         run_receive_chain + backfi_decoder::decode
//
// Layer -> public calls (span names):
//   reader.excitation    reader::build_excitation_into
//   channel.forward      channel::draw_backscatter_channels,
//                        channel::evolve_multipath, apply_channel_into(h_f)
//   tag.wake             channel::incident_power_at_tag_dbm, tag::detect_wake
//   tag.modulate         rng::random_bits, tag::tag_device::backscatter_into
//   impair               impairment_plan::apply_to_reflection /
//                        apply_at_antenna / apply_front_end (inside the
//                        chain's hook) / apply_post_cancellation,
//                        impair::lo_drift_state::step, apply_constant_phase
//   channel.backscatter  apply_channel_into(h_env, h_b), dsp::hadamard_into,
//                        dsp::add_in_place
//   channel.noise        channel::add_awgn
//   fd.receive_chain     fd::run_receive_chain
//   reader.decode        backfi_decoder construction, read_window_bounds,
//                        backfi_decoder::decode
//   phy.slicer           phy::conv_encode, phy::puncture, constellation::slice
//   sim.oracle           the body of sim::oracle_post_mrc_snr_db:
//                        dsp::convolve, dsp::convolve_same_range_into,
//                        dsp::mean_power
//
// Every replay must reproduce the library call bit for bit; the benchmark
// compares the two on every traced op.
#pragma once

#include <vector>

#include "fd/receive_chain.h"
#include "reader/decoder.h"
#include "reader/excitation.h"
#include "sim/backscatter_sim.h"
#include "sim/stream_sim.h"
#include "tag/tag_device.h"
#include "trace.h"

namespace backfi::bench {

/// Buffers reused across replayed trials (one per thread).
struct replay_workspace {
  reader::excitation ex;
  cvec incident;
  cvec rx;
  cvec reflected;
  cvec backscatter;
  tag::tag_transmission tag_tx;
  fd::receive_chain_scratch chain;
  reader::decoder_scratch decoder;
  cvec oracle_yhat;
};

/// Per-op layer counters the per-layer metrics are built from.
struct layer_counts {
  std::size_t chain_runs = 0;
  std::size_t bypassed = 0;
  std::size_t roi_processed = 0;
  std::size_t roi_skipped = 0;
  std::size_t decodes = 0;
  std::size_t sync_attempts = 0;
  std::size_t crc_ok = 0;

  void add_chain(const fd::receive_chain_result& chain);
  void add_decode(const reader::decode_result& decoded);
};

/// run_backscatter_trial through its public calls. Opens one root span of
/// kind "sim.trial" when `t` is non-null.
sim::trial_result replay_trial(const sim::scenario_config& config,
                               replay_workspace& ws, tracer* t,
                               layer_counts& counts);

/// Field-by-field, bitwise comparison of two trial outcomes.
bool same_trial(const sim::trial_result& a, const sim::trial_result& b);

/// build_stream_capture through its public calls; one root span of kind
/// "sim.stream.synth" per packet.
sim::stream_capture replay_stream_capture(
    const sim::stream_scenario_config& config, tracer* t);

/// Bitwise comparison of two captures (timelines, schedule, ground truth).
bool same_capture(const sim::stream_capture& a, const sim::stream_capture& b);

/// The reader session's configuration for a streaming scenario (threads=1,
/// ROI shrinking on, as sim::run_stream_trial builds it).
reader::stream_config session_config(const sim::stream_scenario_config& config);

/// Decode every packet of `cap` with the session's per-packet calls and ROI
/// rule; one root span of kind "reader.stream.packet" per packet. When
/// `op_us` is non-null the per-packet wall times are appended to it.
std::vector<reader::stream_packet_result> replay_stream_decode(
    const sim::stream_capture& cap, const reader::stream_config& config,
    replay_workspace& ws, tracer* t, layer_counts& counts,
    std::vector<double>* op_us);

/// Session output vs replay output, packet by packet (decode fields and the
/// chain's scalar results).
bool same_packets(const std::vector<reader::stream_packet_result>& a,
                  const std::vector<reader::stream_packet_result>& b);

}  // namespace backfi::bench
