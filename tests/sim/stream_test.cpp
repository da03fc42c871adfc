// Streaming receive pipeline: bit-identity to the batch path, thread/chunk
// invariance, drift decode, backpressure accounting and config validation
// (ISSUE 8 acceptance criteria).
#include "sim/stream_sim.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "dsp/ring_buffer.h"
#include "dsp/rng.h"
#include "obs/collector.h"

namespace backfi::sim {
namespace {

stream_scenario_config fast_stream_scenario(std::uint64_t seed,
                                            std::size_t n_packets = 4) {
  stream_scenario_config cfg;
  cfg.scenario.excitation.ppdu_bytes = 2000;
  cfg.scenario.payload_bits = 300;
  cfg.scenario.tag.rate = {tag::tag_modulation::qpsk, phy::code_rate::half,
                           1e6};
  cfg.scenario.tag_distance_m = 2.0;
  cfg.scenario.seed = seed;
  cfg.n_packets = n_packets;
  return cfg;
}

void expect_same_outcomes(const stream_trial_result& a,
                          const stream_trial_result& b, const char* what) {
  ASSERT_EQ(a.packets.size(), b.packets.size()) << what;
  for (std::size_t i = 0; i < a.packets.size(); ++i) {
    const stream_packet_outcome& pa = a.packets[i];
    const stream_packet_outcome& pb = b.packets[i];
    EXPECT_EQ(pa.woke, pb.woke) << what << " packet " << i;
    EXPECT_EQ(pa.sync_found, pb.sync_found) << what << " packet " << i;
    EXPECT_EQ(pa.decoded, pb.decoded) << what << " packet " << i;
    EXPECT_EQ(pa.crc_ok, pb.crc_ok) << what << " packet " << i;
    EXPECT_EQ(pa.bit_errors, pb.bit_errors) << what << " packet " << i;
    ASSERT_EQ(pa.payload.size(), pb.payload.size()) << what << " packet " << i;
    for (std::size_t k = 0; k < pa.payload.size(); ++k)
      ASSERT_EQ(pa.payload[k], pb.payload[k])
          << what << " packet " << i << " bit " << k;
  }
  EXPECT_EQ(a.crc_ok, b.crc_ok) << what;
  EXPECT_EQ(a.bit_errors_total, b.bit_errors_total) << what;
}

// Acceptance anchor: on a static channel the streaming pipeline's decoded
// bit-stream is bit-identical to the per-packet batch reference — at the
// pinned trial seeds 1/2/3/7 plus the 42/43 default anchors.
TEST(StreamBitIdentity, MatchesBatchReferenceOnStaticChannels) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 7u, 42u, 43u}) {
    const stream_scenario_config cfg = fast_stream_scenario(seed);
    const stream_trial_result streamed = run_stream_trial(cfg);
    const stream_trial_result batch = run_stream_batch_reference(cfg);
    expect_same_outcomes(streamed, batch,
                         ("seed " + std::to_string(seed)).c_str());
    EXPECT_EQ(streamed.stats.packets_in, cfg.n_packets);
    EXPECT_EQ(streamed.stats.packets_dropped, 0u);
  }
}

TEST(StreamBitIdentity, TwoThreadPipelineMatchesInline) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 7u, 42u, 43u}) {
    stream_scenario_config cfg = fast_stream_scenario(seed);
    cfg.threads = 1;
    const stream_trial_result one = run_stream_trial(cfg);
    cfg.threads = 2;
    const stream_trial_result two = run_stream_trial(cfg);
    expect_same_outcomes(one, two, ("seed " + std::to_string(seed)).c_str());
    EXPECT_EQ(two.stats.packets_dropped, 0u);  // block policy is lossless
  }
}

TEST(StreamBitIdentity, FeedChunkingIsInvariant) {
  stream_scenario_config cfg = fast_stream_scenario(7);
  cfg.feed_chunk_samples = 0;  // all at once
  const stream_trial_result whole = run_stream_trial(cfg);
  cfg.feed_chunk_samples = 997;  // odd chunk, packets split across feeds
  const stream_trial_result chunked = run_stream_trial(cfg);
  cfg.feed_chunk_samples = 1u << 15;
  const stream_trial_result large = run_stream_trial(cfg);
  expect_same_outcomes(whole, chunked, "chunk 997");
  expect_same_outcomes(whole, large, "chunk 32768");
}

// The streaming contract holds on ANY capture: the drifting-channel stream
// decodes identically through the pipeline and the batch reference too.
TEST(StreamBitIdentity, HoldsUnderDriftingChannels) {
  stream_scenario_config cfg = fast_stream_scenario(3, 6);
  cfg.forward_drift.coherence_packets = 8.0;
  cfg.lo_drift.step_std_rad = 0.05;
  const stream_trial_result streamed = run_stream_trial(cfg);
  const stream_trial_result batch = run_stream_batch_reference(cfg);
  expect_same_outcomes(streamed, batch, "drifted capture");
  cfg.threads = 2;
  const stream_trial_result two = run_stream_trial(cfg);
  expect_same_outcomes(streamed, two, "drifted capture, 2 threads");
}

// Every field two sessions' per-packet results must share, bit for bit.
void expect_same_packets(const std::vector<reader::stream_packet_result>& a,
                         const std::vector<reader::stream_packet_result>& b,
                         const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const std::string at = what + " packet " + std::to_string(i);
    const fd::receive_chain_result& c = a[i].chain;
    const fd::receive_chain_result& d = b[i].chain;
    EXPECT_EQ(a[i].dropped, b[i].dropped) << at;
    EXPECT_EQ(c.analog_depth_db, d.analog_depth_db) << at;
    EXPECT_EQ(c.total_depth_db, d.total_depth_db) << at;
    EXPECT_EQ(c.residual_power, d.residual_power) << at;
    EXPECT_EQ(c.adc_saturated, d.adc_saturated) << at;
    EXPECT_EQ(c.cancellation_bypassed, d.cancellation_bypassed) << at;
    EXPECT_EQ(c.roi_samples_processed, d.roi_samples_processed) << at;
    const reader::decode_result& p = a[i].decoded;
    const reader::decode_result& q = b[i].decoded;
    EXPECT_EQ(p.sync_found, q.sync_found) << at;
    EXPECT_EQ(p.crc_ok, q.crc_ok) << at;
    EXPECT_EQ(p.timing_offset, q.timing_offset) << at;
    EXPECT_EQ(p.post_mrc_snr_db, q.post_mrc_snr_db) << at;
    EXPECT_EQ(p.evm_rms, q.evm_rms) << at;
    EXPECT_EQ(p.payload, q.payload) << at;
  }
}

// The session runs each packet's analog stage as its samples arrive (in
// feed() at 1 thread, in the idle worker at 2), so where the feeds cut the
// capture decides how the stage is split. Random cut sets, each also
// cutting every packet at silent_end - 1, silent_end and end, and a run of
// 1-sample feeds, give the results of one whole-capture feed at 1 and 2
// threads.
TEST(StreamBitIdentity, StagedAnalogStageIsFeedChunkingInvariant) {
  stream_scenario_config cfg = fast_stream_scenario(5, 4);
  cfg.forward_drift.coherence_packets = 8.0;
  const stream_capture cap = build_stream_capture(cfg);
  reader::stream_config scfg;
  scfg.tag = cfg.scenario.tag;
  scfg.decoder = cfg.scenario.decoder;
  scfg.chain = cfg.scenario.chain;
  const auto run = [&](const std::vector<std::size_t>& cuts,
                       std::size_t threads) {
    scfg.threads = threads;
    reader::stream_session session(cap.x, cap.y, cap.schedule, scfg);
    std::size_t fed = 0;
    for (const std::size_t cut : cuts) {
      session.feed(cut - fed);
      fed = cut;
    }
    session.finish();
    return session.results();
  };
  const auto reference = run({}, 1);

  const std::size_t n = cap.y.size();
  dsp::rng gen(6);
  std::vector<std::vector<std::size_t>> plans;
  for (int plan = 0; plan < 4; ++plan) {
    std::vector<std::size_t> cuts;
    for (const reader::stream_packet& p : cap.schedule)
      cuts.insert(cuts.end(), {p.silent_end - 1, p.silent_end, p.end});
    for (int k = 0; k < 8 << plan; ++k) cuts.push_back(gen.uniform_int(n));
    plans.push_back(std::move(cuts));
  }
  // 1-sample feeds across the first packet's silent window, its end and
  // into the second packet.
  {
    std::vector<std::size_t> cuts;
    const reader::stream_packet& p0 = cap.schedule[0];
    const std::size_t from = p0.wake_end, to = cap.schedule[1].silent_end + 64;
    for (std::size_t k = from; k <= to; ++k) cuts.push_back(k);
    cuts.push_back(p0.end - p0.end % 7);
    plans.push_back(std::move(cuts));
  }
  for (std::size_t plan = 0; plan < plans.size(); ++plan) {
    std::vector<std::size_t>& cuts = plans[plan];
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
    for (const std::size_t threads : {1u, 2u})
      expect_same_packets(run(cuts, threads), reference,
                          "plan " + std::to_string(plan) + ", " +
                              std::to_string(threads) + " threads");
  }
}

// The session may read only samples that have been fed: the capture buffer
// holds NaN past the watermark and each chunk's samples are written just
// before the feed that delivers them, so an analog slice that ran past the
// watermark would carry a NaN into the residual's energy and change the
// result (and, at 2 threads, race with the writes under TSan).
TEST(StreamBitIdentity, StagedAnalogStageReadsOnlyFedSamples) {
  stream_scenario_config cfg = fast_stream_scenario(8, 3);
  const stream_capture cap = build_stream_capture(cfg);
  reader::stream_config scfg;
  scfg.tag = cfg.scenario.tag;
  scfg.decoder = cfg.scenario.decoder;
  scfg.chain = cfg.scenario.chain;
  reader::stream_session whole(cap.x, cap.y, cap.schedule, scfg);
  whole.finish();
  for (const std::size_t threads : {1u, 2u}) {
    scfg.threads = threads;
    cvec y(cap.y.size(), cplx{std::nan(""), std::nan("")});
    reader::stream_session session(cap.x, y, cap.schedule, scfg);
    for (std::size_t fed = 0; fed < y.size();) {
      const std::size_t step = std::min<std::size_t>(1009, y.size() - fed);
      std::copy_n(cap.y.begin() + static_cast<std::ptrdiff_t>(fed), step,
                  y.begin() + static_cast<std::ptrdiff_t>(fed));
      session.feed(step);
      fed += step;
    }
    session.finish();
    expect_same_packets(session.results(), whole.results(),
                        std::to_string(threads) + " threads");
  }
}

// Acceptance anchor: a >= 32-packet continuous capture with inter-packet
// channel and LO phase drift decodes end to end with bounded queue depth.
TEST(StreamDrift, DecodesThirtyTwoPacketCaptureWithDrift) {
  stream_scenario_config cfg = fast_stream_scenario(1, 32);
  cfg.forward_drift.coherence_packets = 16.0;
  cfg.lo_drift.step_std_rad = 0.02;
  cfg.threads = 2;
  cfg.queue_capacity = 4;
  const stream_trial_result r = run_stream_trial(cfg);

  ASSERT_EQ(r.packets.size(), 32u);
  EXPECT_EQ(r.stats.packets_in, 32u);
  EXPECT_EQ(r.stats.packets_decoded, 32u);  // block policy: nothing lost
  EXPECT_EQ(r.stats.packets_dropped, 0u);
  // Per-packet re-estimation absorbs the drift: the stream stays decodable.
  EXPECT_GE(r.crc_ok, 28u);
  // Queue depth stays bounded by the configured ring capacity.
  EXPECT_LE(r.stats.queue_high_water, dsp::ring_capacity_for(4));
}

TEST(StreamDrift, DriftChangesTheCaptureButNotTheSchedule) {
  const stream_scenario_config still = fast_stream_scenario(5, 6);
  stream_scenario_config drifting = still;
  drifting.forward_drift.coherence_packets = 4.0;
  drifting.lo_drift.step_std_rad = 0.1;

  const stream_capture a = build_stream_capture(still);
  const stream_capture b = build_stream_capture(drifting);

  ASSERT_EQ(a.schedule.size(), b.schedule.size());
  for (std::size_t i = 0; i < a.schedule.size(); ++i) {
    EXPECT_EQ(a.schedule[i].begin, b.schedule[i].begin);
    EXPECT_EQ(a.schedule[i].end, b.schedule[i].end);
    EXPECT_EQ(a.schedule[i].wake_end, b.schedule[i].wake_end);
    EXPECT_EQ(a.schedule[i].silent_end, b.schedule[i].silent_end);
  }
  // The transmit timeline is the reader's own; only the receive capture
  // sees the drifted channel.
  ASSERT_EQ(a.x.size(), b.x.size());
  // Static stream holds h_f exactly; drifted stream has walked away.
  ASSERT_EQ(a.final_h_f.size(), b.final_h_f.size());
  bool taps_differ = false;
  for (std::size_t k = 0; k < a.final_h_f.size(); ++k)
    if (a.final_h_f[k] != b.final_h_f[k]) taps_differ = true;
  EXPECT_TRUE(taps_differ);
  EXPECT_DOUBLE_EQ(a.final_lo_phase_rad, 0.0);
  EXPECT_NE(b.final_lo_phase_rad, 0.0);
}

TEST(StreamDrift, CaptureIsDeterministicPerSeed) {
  stream_scenario_config cfg = fast_stream_scenario(9, 3);
  cfg.forward_drift.coherence_packets = 8.0;
  cfg.lo_drift.step_std_rad = 0.05;
  const stream_capture a = build_stream_capture(cfg);
  const stream_capture b = build_stream_capture(cfg);
  ASSERT_EQ(a.y.size(), b.y.size());
  for (std::size_t k = 0; k < a.y.size(); ++k) ASSERT_EQ(a.y[k], b.y[k]);
  EXPECT_DOUBLE_EQ(a.final_lo_phase_rad, b.final_lo_phase_rad);
}

TEST(StreamSession, DropPolicyPreservesPacketAccounting) {
  stream_scenario_config cfg = fast_stream_scenario(2, 12);
  cfg.threads = 2;
  cfg.queue_capacity = 1;
  cfg.overflow = reader::stream_overflow::drop;
  const stream_trial_result r = run_stream_trial(cfg);

  // Drops are execution-dependent, but the accounting invariant is not:
  // every fed packet is either decoded or counted as dropped.
  EXPECT_EQ(r.stats.packets_in, 12u);
  EXPECT_EQ(r.stats.packets_decoded + r.stats.packets_dropped, 12u);
  std::size_t dropped_flags = 0;
  for (const stream_packet_outcome& p : r.packets)
    if (p.dropped) ++dropped_flags;
  EXPECT_EQ(dropped_flags, r.stats.packets_dropped);
}

// Regression for a shutdown race: finish() pushes the final packets and
// only then release-stores producer_done_; a worker whose try_pop failed
// just before those pushes must re-drain the capture ring after observing
// the flag instead of exiting with packets still queued (which left their
// results default-constructed under the lossless block policy). The lost
// interleaving needs the worker preempted between its failed pop and the
// flag check, so no test can force it deterministically — this pins the
// shutdown-drain behavior by pushing every packet from finish() itself
// against an idle-spinning worker, repeatedly (TSan and the acquire/
// release pairing cover the ordering argument).
TEST(StreamSession, FinishDrainsPacketsPushedAtShutdown) {
  stream_scenario_config cfg = fast_stream_scenario(11, 2);
  const stream_capture cap = build_stream_capture(cfg);
  const stream_trial_result ref = run_stream_trial(cfg);  // inline reference

  reader::stream_config scfg;
  scfg.tag = cfg.scenario.tag;
  scfg.decoder = cfg.scenario.decoder;
  scfg.chain = cfg.scenario.chain;
  scfg.threads = 2;
  scfg.queue_capacity = 4;

  for (int rep = 0; rep < 100; ++rep) {
    reader::stream_session session(cap.x, cap.y, cap.schedule, scfg);
    session.finish();  // pushes every packet, then signals the worker
    EXPECT_EQ(session.stats().packets_decoded, cap.schedule.size());
    ASSERT_EQ(session.results().size(), ref.packets.size());
    for (std::size_t i = 0; i < ref.packets.size(); ++i) {
      const reader::stream_packet_result& r = session.results()[i];
      EXPECT_FALSE(r.dropped) << "rep " << rep << " packet " << i;
      EXPECT_EQ(r.decoded.decoded, ref.packets[i].decoded)
          << "rep " << rep << " packet " << i;
      EXPECT_EQ(r.decoded.crc_ok, ref.packets[i].crc_ok)
          << "rep " << rep << " packet " << i;
      ASSERT_EQ(r.decoded.payload, ref.packets[i].payload)
          << "rep " << rep << " packet " << i;
    }
  }
}

// A schedule whose silent window is shorter than the canceller taps passes
// the session's checks (only wake_end <= silent_end is required). The chain
// must bypass cancellation for it; a throw from the fit would escape the
// 2-thread worker, which has no handler, and terminate the process.
TEST(StreamSession, ShortSilentWindowBypassesCancellation) {
  const stream_scenario_config cfg = fast_stream_scenario(4, 2);
  stream_capture cap = build_stream_capture(cfg);
  for (reader::stream_packet& p : cap.schedule) p.silent_end = p.wake_end + 3;

  reader::stream_config scfg;
  scfg.tag = cfg.scenario.tag;
  scfg.decoder = cfg.scenario.decoder;
  scfg.chain = cfg.scenario.chain;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    scfg.threads = threads;
    reader::stream_session session(cap.x, cap.y, cap.schedule, scfg);
    session.finish();
    ASSERT_EQ(session.results().size(), cap.schedule.size());
    for (const reader::stream_packet_result& r : session.results())
      EXPECT_TRUE(r.chain.cancellation_bypassed)
          << threads << " threads, packet " << r.index;
  }
}

TEST(StreamSession, MalformedScheduleThrows) {
  const cvec x(64, cplx{0.0, 0.0});
  const cvec y(64, cplx{0.0, 0.0});
  reader::stream_config cfg;

  // begin >= end
  reader::stream_packet bad{.begin = 10, .end = 10, .wake_end = 10,
                            .silent_end = 10, .payload_bits = 8};
  EXPECT_THROW(reader::stream_session(x, y, std::span(&bad, 1), cfg),
               std::invalid_argument);
  // end past the capture
  bad = {.begin = 0, .end = 100, .wake_end = 4, .silent_end = 8,
         .payload_bits = 8};
  EXPECT_THROW(reader::stream_session(x, y, std::span(&bad, 1), cfg),
               std::invalid_argument);
  // silent window running past the packet end
  bad = {.begin = 0, .end = 32, .wake_end = 4, .silent_end = 33,
         .payload_bits = 8};
  EXPECT_THROW(reader::stream_session(x, y, std::span(&bad, 1), cfg),
               std::invalid_argument);
  // ... and past the capture
  bad = {.begin = 0, .end = 32, .wake_end = 4, .silent_end = 100,
         .payload_bits = 8};
  EXPECT_THROW(reader::stream_session(x, y, std::span(&bad, 1), cfg),
               std::invalid_argument);
  // zero payload
  bad = {.begin = 0, .end = 32, .wake_end = 4, .silent_end = 8,
         .payload_bits = 0};
  EXPECT_THROW(reader::stream_session(x, y, std::span(&bad, 1), cfg),
               std::invalid_argument);
  // capture length mismatch
  const cvec y_short(32, cplx{0.0, 0.0});
  reader::stream_packet ok{.begin = 0, .end = 32, .wake_end = 4,
                           .silent_end = 8, .payload_bits = 8};
  EXPECT_THROW(reader::stream_session(x, y_short, std::span(&ok, 1), cfg),
               std::invalid_argument);
}

// An unrepresentable payload size is a malformed schedule entry. A
// representable one too long for its packet runs and fails typed.
TEST(StreamSession, OversizedPayloadIsRejectedOrTyped) {
  const stream_scenario_config cfg = fast_stream_scenario(5, 2);
  stream_capture cap = build_stream_capture(cfg);
  reader::stream_config scfg;
  scfg.tag = cfg.scenario.tag;
  scfg.decoder = cfg.scenario.decoder;
  scfg.chain = cfg.scenario.chain;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    scfg.threads = threads;
    cap.schedule[1].payload_bits = SIZE_MAX - 20;
    EXPECT_THROW(reader::stream_session(cap.x, cap.y, cap.schedule, scfg),
                 std::invalid_argument)
        << threads << " threads";
    cap.schedule[1].payload_bits = std::size_t{1} << 40;
    reader::stream_session session(cap.x, cap.y, cap.schedule, scfg);
    session.finish();
    ASSERT_EQ(session.results().size(), 2u);
    EXPECT_TRUE(session.results()[0].decoded.crc_ok) << threads << " threads";
    EXPECT_EQ(session.results()[1].decoded.failure,
              reader::decode_failure::payload_too_long)
        << threads << " threads";
  }
}

TEST(StreamSession, OversizedQueueCapacityThrows) {
  // A capacity with no power-of-two ring size is rejected up front (the
  // rounding used to wrap to 0 and spin forever in the constructor).
  const cvec x(64, cplx{0.0, 0.0});
  const cvec y(64, cplx{0.0, 0.0});
  reader::stream_config cfg;
  cfg.queue_capacity = SIZE_MAX;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    cfg.threads = threads;
    EXPECT_THROW(reader::stream_session(x, y, {}, cfg), std::invalid_argument)
        << threads << " threads";
  }
}

TEST(StreamValidate, OversizedQueueCapacityIsBadStreamQueue) {
  stream_scenario_config cfg = fast_stream_scenario(1, 2);
  cfg.queue_capacity = SIZE_MAX;
  EXPECT_EQ(cfg.validate(), config_error::bad_stream_queue);
  EXPECT_THROW(run_stream_trial(cfg), std::invalid_argument);
  cfg.queue_capacity = dsp::max_ring_capacity + 1;
  EXPECT_EQ(cfg.validate(), config_error::bad_stream_queue);
}

TEST(StreamValidate, TypedErrorsAndThrowingEntryPoints) {
  stream_scenario_config cfg = fast_stream_scenario(1, 2);
  EXPECT_EQ(cfg.validate(), config_error::none);

  stream_scenario_config bad = cfg;
  bad.n_packets = 0;
  EXPECT_EQ(bad.validate(), config_error::zero_stream_packets);
  EXPECT_STREQ(to_string(bad.validate()), "zero_stream_packets");

  bad = cfg;
  bad.threads = 3;
  EXPECT_EQ(bad.validate(), config_error::bad_stream_threads);

  bad = cfg;
  bad.queue_capacity = 0;
  EXPECT_EQ(bad.validate(), config_error::bad_stream_queue);

  bad = cfg;
  bad.lo_drift.step_std_rad = -0.1;
  EXPECT_EQ(bad.validate(), config_error::bad_drift);

  // Scenario violations surface through the same validator first.
  bad = cfg;
  bad.scenario.payload_bits = 0;
  EXPECT_EQ(bad.validate(), config_error::zero_payload);

  bad = cfg;
  bad.threads = 5;
  try {
    run_stream_trial(bad);
    FAIL() << "run_stream_trial accepted an invalid config";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("run_stream_trial"), std::string::npos);
    EXPECT_NE(what.find("bad_stream_threads"), std::string::npos);
  }
  EXPECT_THROW(build_stream_capture(bad), std::invalid_argument);
  EXPECT_THROW(run_stream_batch_reference(bad), std::invalid_argument);
}

TEST(StreamMetrics, SessionEmitsStreamCountersAndGauges) {
  obs::collector collector;
  stream_scenario_config cfg = fast_stream_scenario(1, 4);
  cfg.scenario.collector = &collector;
  const stream_trial_result r = run_stream_trial(cfg);

  const obs::metrics_registry& reg = collector.registry();
  EXPECT_EQ(reg.counter_at(obs::probe::stream_packets_in).value, 4u);
  EXPECT_EQ(reg.counter_at(obs::probe::stream_packets_decoded).value, 4u);
  EXPECT_EQ(reg.counter_at(obs::probe::stream_crc_ok).value, r.crc_ok);

  EXPECT_TRUE(reg.gauge_at(obs::probe::stream_queue_high_water).set);
  ASSERT_TRUE(reg.gauge_at(obs::probe::stream_latency_us_max).set);
  EXPECT_GT(reg.gauge_at(obs::probe::stream_latency_us_max).value, 0.0);
}

// 2-thread probe confinement: the chain/decoder probes recorded on the
// worker thread land on the caller's collector after finish() merges.
TEST(StreamMetrics, WorkerProbesMergeIntoCallerCollector) {
  obs::collector one_thread;
  obs::collector two_thread;
  stream_scenario_config cfg = fast_stream_scenario(2, 4);
  cfg.scenario.collector = &one_thread;
  run_stream_trial(cfg);
  cfg.threads = 2;
  cfg.scenario.collector = &two_thread;
  run_stream_trial(cfg);

  // Deterministic counters (typed probes + stream counters) are identical
  // across topologies; only timing/runtime gauges may differ.
  for (std::size_t i = 0; i < obs::probe_count; ++i) {
    const auto p = static_cast<obs::probe>(i);
    if (obs::info(p).kind != obs::probe_kind::counter) continue;
    EXPECT_EQ(one_thread.registry().counter_at(p).value,
              two_thread.registry().counter_at(p).value)
        << obs::to_string(p);
  }
}

}  // namespace
}  // namespace backfi::sim
