// Region-of-interest receive chain (ISSUE 10): the chain computes the ADC
// quantization, digital cancellation and residual-gain application only
// over silent_window ∪ roi, and everything the contract allows reading —
// adaptation, depths, residual power, the saturation flag, every in-union
// sample, the decoded bit-stream — is bit-identical to the full sweep.
// These tests pin the equivalence at the chain level (window shapes around
// the decoder span), at the session level (the session against a
// full-range per-packet loop, including a retry-widened sync under a tight
// ROI), on the streaming 32-packet drift capture vs the full-capture batch
// reference, and across 1/2/4/8-thread Monte-Carlo pools (PER +
// deterministic telemetry digest). cancel_packet's roi/hook rule, which
// both the session and the trial rely on, is tested directly.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>

#include "channel/awgn.h"
#include "channel/backscatter_link.h"
#include "fd/receive_chain.h"
#include "obs/collector.h"
#include "obs/export.h"
#include "reader/decoder.h"
#include "reader/stream_session.h"
#include "sim/backscatter_sim.h"
#include "sim/parallel.h"
#include "sim/stream_sim.h"
#include "wifi/ppdu.h"

namespace backfi::sim {
namespace {

// --- Chain-level fixtures (the fd receive_chain_test idiom) ---

struct chain_scenario {
  cvec tx;
  cvec rx;
};

chain_scenario make_chain_scenario(std::uint64_t seed) {
  dsp::rng gen(seed);
  chain_scenario s;
  s.tx = wifi::random_ppdu(300, {.rate = wifi::wifi_rate::mbps24}, seed).samples;
  const channel::link_budget budget;
  const auto ch = channel::draw_backscatter_channels(budget, 2.0, gen);
  s.rx = channel::apply_channel(s.tx, ch.h_env);
  channel::add_awgn(s.rx, ch.noise_power, gen);
  return s;
}

constexpr std::size_t kSilentBegin = 0;
constexpr std::size_t kSilentEnd = 320;

void expect_scalar_results_equal(const fd::receive_chain_result& a,
                                 const fd::receive_chain_result& b,
                                 const char* what) {
  EXPECT_EQ(a.analog_depth_db, b.analog_depth_db) << what;
  EXPECT_EQ(a.total_depth_db, b.total_depth_db) << what;
  EXPECT_EQ(a.residual_power, b.residual_power) << what;
  EXPECT_EQ(a.adc_saturated, b.adc_saturated) << what;
  EXPECT_EQ(a.cancellation_bypassed, b.cancellation_bypassed) << what;
}

// In-union samples must match the full sweep bit for bit; samples outside
// the union are stale by contract and deliberately not compared.
void expect_union_samples_equal(const cvec& roi_cleaned,
                                const cvec& full_cleaned,
                                dsp::sample_range roi, const char* what) {
  ASSERT_EQ(roi_cleaned.size(), full_cleaned.size()) << what;
  for (std::size_t i = kSilentBegin; i < kSilentEnd; ++i)
    ASSERT_EQ(roi_cleaned[i], full_cleaned[i]) << what << " silent " << i;
  const std::size_t end = std::min(roi.end, full_cleaned.size());
  for (std::size_t i = roi.begin; i < end; ++i)
    ASSERT_EQ(roi_cleaned[i], full_cleaned[i]) << what << " roi " << i;
}

/// fd::run_receive_chain on a fresh scratch: the chain result plus the
/// cleaned waveform it left in the scratch.
struct chain_run : fd::receive_chain_result {
  cvec cleaned;
};

chain_run run_chain(std::span<const cplx> tx, std::span<const cplx> rx,
                    std::size_t silent_begin, std::size_t silent_end,
                    const fd::receive_chain_config& config) {
  fd::receive_chain_scratch scratch;
  chain_run out{fd::run_receive_chain(tx, rx, silent_begin, silent_end, config,
                                      &scratch),
                {}};
  out.cleaned = std::move(scratch.cleaned);
  return out;
}

TEST(RoiChainTest, UnsetRoiReportsNoAccountingAndNoGauges) {
  const chain_scenario s = make_chain_scenario(1);
  obs::collector collector;
  fd::receive_chain_config cfg;
  cfg.collector = &collector;
  const auto result =
      run_chain(s.tx, s.rx, kSilentBegin, kSilentEnd, cfg);
  EXPECT_EQ(result.roi_samples_processed, 0u);
  EXPECT_EQ(result.roi_samples_skipped, 0u);
  const obs::metrics_registry& reg = collector.registry();
  EXPECT_FALSE(reg.gauge_at(obs::probe::roi_samples_processed).set);
  EXPECT_FALSE(reg.gauge_at(obs::probe::roi_samples_skipped).set);
  EXPECT_FALSE(reg.gauge_at(obs::probe::roi_coverage).set);
}

TEST(RoiChainTest, InUnionSamplesMatchFullSweepForEveryWindowShape) {
  const chain_scenario s = make_chain_scenario(2);
  const std::size_t n = s.rx.size();
  const auto full =
      run_chain(s.tx, s.rx, kSilentBegin, kSilentEnd, {});

  // The shapes the decoder's window can take relative to the silent
  // window: a typical decode span, the same span off by one each way,
  // silent-window-adjacent (touching ⇒ one merged range), disjoint (a gap
  // ⇒ two ranges with a skipped middle), and full coverage.
  const dsp::sample_range windows[] = {
      {kSilentEnd, 2000},     {kSilentEnd + 1, 1999}, {kSilentEnd - 1, 2001},
      {kSilentEnd, 800},      {1000, 2400},           {0, n},
  };
  for (const dsp::sample_range& roi : windows) {
    fd::receive_chain_config cfg;
    cfg.roi = roi;
    const auto windowed =
        run_chain(s.tx, s.rx, kSilentBegin, kSilentEnd, cfg);
    const std::string what = "roi [" + std::to_string(roi.begin) + ", " +
                             std::to_string(roi.end) + ")";
    expect_scalar_results_equal(windowed, full, what.c_str());
    expect_union_samples_equal(windowed.cleaned, full.cleaned, roi,
                               what.c_str());
    // Accounting: processed = |silent ∪ roi| clamped to the capture.
    const std::size_t lo = std::min(roi.begin, kSilentBegin);
    const std::size_t silent_size = kSilentEnd - kSilentBegin;
    const std::size_t expected =
        roi.begin <= kSilentEnd
            ? std::max(std::min(roi.end, n), kSilentEnd) - lo
            : silent_size + (std::min(roi.end, n) - roi.begin);
    EXPECT_EQ(windowed.roi_samples_processed, expected) << what;
    EXPECT_EQ(windowed.roi_samples_skipped, n - expected) << what;
  }
}

TEST(RoiChainTest, WorksWithEitherStageDisabled) {
  const chain_scenario s = make_chain_scenario(3);
  const dsp::sample_range roi{kSilentEnd, 2000};
  fd::receive_chain_config configs[2];
  configs[0].enable_adc = false;      // ranged digital cancel only
  configs[1].enable_digital = false;  // ranged quantization only
  for (auto& cfg : configs) {
    const auto full =
        run_chain(s.tx, s.rx, kSilentBegin, kSilentEnd, cfg);
    cfg.roi = roi;
    const auto windowed =
        run_chain(s.tx, s.rx, kSilentBegin, kSilentEnd, cfg);
    expect_scalar_results_equal(windowed, full, "stage-disabled");
    expect_union_samples_equal(windowed.cleaned, full.cleaned, roi,
                               "stage-disabled");
    EXPECT_GT(windowed.roi_samples_skipped, 0u);
  }
}

TEST(RoiChainTest, FrontEndHookForcesFullRangeSweep) {
  const chain_scenario s = make_chain_scenario(4);
  auto halve = [](std::span<cplx> samples) {
    for (cplx& v : samples) v *= 0.5;
  };
  fd::receive_chain_config hooked;
  hooked.front_end_hook = halve;
  const auto full =
      run_chain(s.tx, s.rx, kSilentBegin, kSilentEnd, hooked);
  hooked.roi = {kSilentEnd, 2000};
  const auto windowed =
      run_chain(s.tx, s.rx, kSilentBegin, kSilentEnd, hooked);
  // The hook mutates the whole analog-cancelled waveform, so the chain
  // must ignore the roi entirely: every sample identical, nothing skipped.
  expect_scalar_results_equal(windowed, full, "front-end hook");
  ASSERT_EQ(windowed.cleaned.size(), full.cleaned.size());
  for (std::size_t i = 0; i < full.cleaned.size(); ++i)
    ASSERT_EQ(windowed.cleaned[i], full.cleaned[i]) << i;
  EXPECT_EQ(windowed.roi_samples_processed, s.rx.size());
  EXPECT_EQ(windowed.roi_samples_skipped, 0u);
}

TEST(RoiChainTest, ResidualGainTrackingKeepsFullQuantizeSweep) {
  const chain_scenario s = make_chain_scenario(5);
  const dsp::sample_range roi{kSilentEnd, 2000};
  fd::receive_chain_config tracked;
  tracked.track_residual_gain = true;
  const auto full =
      run_chain(s.tx, s.rx, kSilentBegin, kSilentEnd, tracked);
  tracked.roi = roi;
  const auto windowed =
      run_chain(s.tx, s.rx, kSilentBegin, kSilentEnd, tracked);
  // The tracker's pass 1-2 statistics are whole-capture by definition, so
  // quantize/cancel stay full-range (processed = capture length); only the
  // final gain-application pass is ranged, and in-union samples still
  // match the full sweep bit for bit.
  expect_scalar_results_equal(windowed, full, "gain tracking");
  expect_union_samples_equal(windowed.cleaned, full.cleaned, roi,
                             "gain tracking");
  EXPECT_EQ(windowed.roi_samples_processed, s.rx.size());
  EXPECT_EQ(windowed.roi_samples_skipped, 0u);
}

TEST(RoiChainTest, EmitsRoiGaugesWhenConfigured) {
  const chain_scenario s = make_chain_scenario(6);
  obs::collector collector;
  fd::receive_chain_config cfg;
  cfg.roi = {kSilentEnd, 2000};
  cfg.collector = &collector;
  const auto result =
      run_chain(s.tx, s.rx, kSilentBegin, kSilentEnd, cfg);
  EXPECT_GT(result.roi_samples_processed, 0u);
  EXPECT_GT(result.roi_samples_skipped, 0u);
  const obs::metrics_registry& reg = collector.registry();
  const obs::gauge& processed =
      reg.gauge_at(obs::probe::roi_samples_processed);
  const obs::gauge& skipped = reg.gauge_at(obs::probe::roi_samples_skipped);
  const obs::gauge& coverage = reg.gauge_at(obs::probe::roi_coverage);
  ASSERT_TRUE(processed.set);
  ASSERT_TRUE(skipped.set);
  ASSERT_TRUE(coverage.set);
  EXPECT_EQ(processed.value + skipped.value, static_cast<double>(s.rx.size()));
  EXPECT_GT(coverage.value, 0.0);
  EXPECT_LT(coverage.value, 1.0);
}

// --- Decoder read-window bounds ---

TEST(RoiDecoderTest, ReadWindowBoundsDegenerateGeometryIsEmpty) {
  const tag::tag_config tag;
  const reader::backfi_decoder decoder(tag);
  EXPECT_TRUE(decoder.read_window_bounds(0, 0, 600).empty());
  EXPECT_TRUE(decoder.read_window_bounds(1000, 1000, 600).empty());
  EXPECT_TRUE(decoder.read_window_bounds(1000, 2000, 600).empty());
  EXPECT_TRUE(decoder.read_window_bounds(1000, 0, 0).empty());
}

TEST(RoiDecoderTest, ReadWindowWidensWithRetryScheduleAndNeverLeaksCapture) {
  const tag::tag_config tag;
  const std::size_t capture_len = 1 << 16;
  reader::decoder_config narrow;
  narrow.sync_retries = 0;
  reader::decoder_config widened;
  widened.sync_retries = 2;
  const reader::backfi_decoder a(tag, narrow);
  const reader::backfi_decoder b(tag, widened);
  const dsp::sample_range wa = a.read_window_bounds(capture_len, 400, 600);
  const dsp::sample_range wb = b.read_window_bounds(capture_len, 400, 600);
  ASSERT_FALSE(wa.empty());
  ASSERT_FALSE(wb.empty());
  // The worst-case retry widening only ever grows the window.
  EXPECT_LE(wb.begin, wa.begin);
  EXPECT_GE(wb.end, wa.end);
  EXPECT_GT(wb.size(), wa.size());
  EXPECT_LE(wb.end, capture_len);
}

// --- Session-level equivalence: the session against the full range ---

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

reader::stream_config session_config(const stream_scenario_config& cfg) {
  reader::stream_config scfg;
  scfg.tag = cfg.scenario.tag;
  scfg.decoder = cfg.scenario.decoder;
  scfg.chain = cfg.scenario.chain;
  return scfg;
}

/// run_stream_batch_reference's per-packet body over `schedule`: the
/// receive chain with an empty roi (the full capture), then decode.
std::vector<reader::stream_packet_result> full_range_reference(
    const stream_capture& cap, std::span<const reader::stream_packet> schedule,
    const reader::stream_config& scfg) {
  const reader::backfi_decoder decoder(scfg.tag, scfg.decoder);
  const fd::receive_chain_config& chain = scfg.chain;
  fd::receive_chain_scratch chain_scratch;
  reader::decoder_scratch decode_scratch;
  std::vector<reader::stream_packet_result> results(schedule.size());
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const reader::stream_packet& p = schedule[i];
    const std::size_t len = p.end - p.begin;
    const auto xseg = std::span<const cplx>(cap.x).subspan(p.begin, len);
    const auto yseg = std::span<const cplx>(cap.y).subspan(p.begin, len);
    results[i].index = i;
    results[i].chain =
        fd::run_receive_chain(xseg, yseg, p.wake_end - p.begin,
                              p.silent_end - p.begin, chain, &chain_scratch);
    results[i].decoded =
        decoder.decode(xseg, chain_scratch.cleaned, p.wake_end - p.begin,
                       p.payload_bits, &decode_scratch);
  }
  return results;
}

void expect_packets_bit_identical(
    const std::vector<reader::stream_packet_result>& session,
    const std::vector<reader::stream_packet_result>& full_range,
    const char* what) {
  ASSERT_EQ(session.size(), full_range.size()) << what;
  for (std::size_t i = 0; i < session.size(); ++i) {
    const reader::stream_packet_result& a = session[i];
    const reader::stream_packet_result& b = full_range[i];
    EXPECT_EQ(a.chain.analog_depth_db, b.chain.analog_depth_db)
        << what << " packet " << i;
    EXPECT_EQ(a.chain.total_depth_db, b.chain.total_depth_db)
        << what << " packet " << i;
    EXPECT_EQ(a.chain.residual_power, b.chain.residual_power)
        << what << " packet " << i;
    EXPECT_EQ(a.chain.adc_saturated, b.chain.adc_saturated)
        << what << " packet " << i;
    EXPECT_EQ(a.decoded.sync_found, b.decoded.sync_found)
        << what << " packet " << i;
    EXPECT_EQ(a.decoded.sync_attempts, b.decoded.sync_attempts)
        << what << " packet " << i;
    EXPECT_EQ(a.decoded.timing_offset, b.decoded.timing_offset)
        << what << " packet " << i;
    EXPECT_EQ(a.decoded.crc_ok, b.decoded.crc_ok) << what << " packet " << i;
    EXPECT_EQ(a.decoded.failure, b.decoded.failure)
        << what << " packet " << i;
    ASSERT_EQ(a.decoded.payload, b.decoded.payload)
        << what << " packet " << i;
    EXPECT_EQ(a.decoded.post_mrc_snr_db, b.decoded.post_mrc_snr_db)
        << what << " packet " << i;
    EXPECT_EQ(a.decoded.evm_rms, b.decoded.evm_rms) << what << " packet " << i;
    // The reference really ran the full range: an unset roi reports none.
    EXPECT_EQ(b.chain.roi_samples_processed, 0u) << what << " packet " << i;
  }
}

TEST(RoiEquivalenceTest, SessionRoiOnMatchesRoiOffBitExact) {
  for (const std::uint64_t seed : {1u, 7u, 42u}) {
    stream_scenario_config cfg = fast_stream_scenario(seed, 4);
    cfg.forward_drift.coherence_packets = 8.0;
    cfg.lo_drift.step_std_rad = 0.05;
    const stream_capture cap = build_stream_capture(cfg);
    reader::stream_config scfg = session_config(cfg);
    const auto reference = full_range_reference(cap, cap.schedule, scfg);
    for (const std::size_t threads : {1u, 2u}) {
      scfg.threads = threads;
      reader::stream_session session(cap.x, cap.y, cap.schedule, scfg);
      session.finish();
      const std::string what =
          "seed " + std::to_string(seed) + " threads " + std::to_string(threads);
      expect_packets_bit_identical(session.results(), reference, what.c_str());
      // The session actually skipped work.
      EXPECT_GT(session.stats().roi_samples_skipped, 0u) << what;
      EXPECT_GT(session.stats().roi_samples_processed, 0u) << what;
    }
  }
}

// cancel_packet's rule, shared by the session (no hook) and the trial (a
// hook when the plan has post-cancellation faults): without a hook the
// chain runs over the decoder's read window; a hook keeps the caller's
// roi and sees the whole cleaned segment after the chain.
TEST(CancelPacketTest, RoiIsTheReadWindowUnlessAHookRewritesTheSegment) {
  const stream_scenario_config cfg = fast_stream_scenario(3, 2);
  const stream_capture cap = build_stream_capture(cfg);
  // The second packet: relative and absolute indices differ.
  const reader::stream_packet& p = cap.schedule[1];
  ASSERT_GT(p.begin, 0u);
  const std::size_t len = p.end - p.begin;
  const reader::backfi_decoder decoder(cfg.scenario.tag, cfg.scenario.decoder);
  const dsp::sample_range window =
      decoder.read_window_bounds(len, p.wake_end - p.begin, p.payload_bits);
  ASSERT_FALSE(window.empty());
  const dsp::sample_range caller_roi{p.silent_end - p.begin, len - 7};
  fd::receive_chain_scratch scratch;

  fd::receive_chain_config chain = cfg.scenario.chain;
  chain.roi = caller_roi;
  const fd::receive_chain_result no_hook =
      reader::cancel_packet(cap.x, cap.y, p, decoder, {}, chain, scratch);
  EXPECT_EQ(chain.roi.begin, window.begin);
  EXPECT_EQ(chain.roi.end, window.end);
  EXPECT_GT(no_hook.roi_samples_skipped, 0u);

  chain = cfg.scenario.chain;
  chain.roi = caller_roi;
  std::size_t calls = 0;
  const reader::post_cancel_fn hook = [&](std::span<const cplx> tx,
                                          std::span<cplx> cleaned,
                                          std::size_t silent_end) {
    ++calls;
    EXPECT_EQ(tx.data(), cap.x.data() + p.begin);
    EXPECT_EQ(tx.size(), len);
    EXPECT_EQ(cleaned.data(), scratch.cleaned.data());
    EXPECT_EQ(cleaned.size(), len);
    EXPECT_EQ(silent_end, p.silent_end - p.begin);
    cleaned.front() = cplx{123.0, 0.0};
    cleaned.back() = cplx{0.0, -45.0};
  };
  const fd::receive_chain_result with_hook =
      reader::cancel_packet(cap.x, cap.y, p, decoder, hook, chain, scratch);
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(chain.roi.begin, caller_roi.begin);
  EXPECT_EQ(chain.roi.end, caller_roi.end);
  // The chain swept the silent window and the caller's roi, which touch,
  // and the hook ran after it.
  EXPECT_EQ(with_hook.roi_samples_processed,
            caller_roi.end - (p.wake_end - p.begin));
  EXPECT_EQ(scratch.cleaned.front(), (cplx{123.0, 0.0}));
  EXPECT_EQ(scratch.cleaned.back(), (cplx{0.0, -45.0}));
}

// Satellite: force the decoder through a widened retry (sync_attempts > 1)
// under a tight per-packet ROI and pin bit-identical recovery vs the
// full-capture chain. Shifting the nominal origin EARLIER than the true
// wake instant keeps the silent window backscatter-free (the tag is not
// reflecting yet) while giving the sync scan a +delta timing offset past
// the first attempt's search half-width — attempt 0 fails, the
// retry-widened attempt recovers it, and the ROI (derived from the same
// worst-case widening) still covers every sample the retry reads.
TEST(RoiRetryTest, RetryWidenedSyncBitIdenticalUnderTightRoi) {
  const stream_scenario_config cfg = fast_stream_scenario(1, 1);
  const stream_capture cap = build_stream_capture(cfg);
  ASSERT_EQ(cap.schedule.size(), 1u);
  ASSERT_TRUE(cap.woke[0]);

  // Default decoder: timing_search 24, one retry at scale 3 ⇒ reach 72.
  const int delta = 40;  // past attempt 0, inside the widened attempt
  std::array<reader::stream_packet, 1> shifted{cap.schedule[0]};
  ASSERT_GE(shifted[0].wake_end, shifted[0].begin + delta);
  shifted[0].wake_end -= delta;
  shifted[0].silent_end -= delta;

  const reader::stream_config scfg = session_config(cfg);
  const auto reference = full_range_reference(cap, shifted, scfg);
  for (const std::size_t threads : {1u, 2u}) {
    reader::stream_config threaded = scfg;
    threaded.threads = threads;
    reader::stream_session session(cap.x, cap.y, shifted, threaded);
    session.finish();
    const std::string what = "threads " + std::to_string(threads);

    const reader::decode_result& decoded = session.results()[0].decoded;
    ASSERT_TRUE(decoded.sync_found) << what;
    EXPECT_GT(decoded.sync_attempts, 1u) << what;
    // The recovered offset is the schedule shift plus the tag's own wake
    // jitter — what matters is that it sits beyond attempt 0's ±24 reach.
    EXPECT_GE(decoded.timing_offset, delta) << what;
    EXPECT_TRUE(decoded.crc_ok) << what;
    ASSERT_EQ(decoded.payload, cap.payloads[0]) << what;
    expect_packets_bit_identical(session.results(), reference, what.c_str());
    EXPECT_GT(session.stats().roi_samples_skipped, 0u) << what;
  }
}

// Streaming gate: the 32-packet drifting capture through the ROI-shrunk
// session pipeline decodes bit-identically to the full-capture per-packet
// batch reference, at both session topologies.
TEST(RoiEquivalenceTest, StreamingDriftCaptureMatchesFullCaptureReference) {
  stream_scenario_config cfg = fast_stream_scenario(1, 32);
  cfg.forward_drift.coherence_packets = 16.0;
  cfg.lo_drift.step_std_rad = 0.02;
  const stream_trial_result batch = run_stream_batch_reference(cfg);
  for (const std::size_t threads : {1u, 2u}) {
    cfg.threads = threads;
    const stream_trial_result streamed = run_stream_trial(cfg);
    ASSERT_EQ(streamed.packets.size(), batch.packets.size());
    for (std::size_t i = 0; i < streamed.packets.size(); ++i) {
      EXPECT_EQ(streamed.packets[i].crc_ok, batch.packets[i].crc_ok) << i;
      EXPECT_EQ(streamed.packets[i].bit_errors, batch.packets[i].bit_errors)
          << i;
      ASSERT_EQ(streamed.packets[i].payload, batch.packets[i].payload) << i;
    }
    EXPECT_EQ(streamed.crc_ok, batch.crc_ok);
    EXPECT_GT(streamed.stats.roi_samples_skipped, 0u);
  }
}

// Thread sweep: the Monte-Carlo pool runs the ROI-shrunk trial path; the
// PER and the deterministic (no-timings) telemetry export must stay
// byte-identical at 1/2/4/8 threads.
TEST(RoiEquivalenceTest, PerAndTelemetryDigestIdenticalAcrossThreadCounts) {
  scenario_config cfg;
  cfg.excitation.ppdu_bytes = 2000;
  cfg.payload_bits = 300;
  cfg.tag.rate = {tag::tag_modulation::qpsk, phy::code_rate::half, 1e6};
  cfg.tag_distance_m = 3.5;
  cfg.seed = 5;

  double reference_per = 0.0;
  std::string reference_json;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    scoped_thread_count guard(threads);
    obs::collector collector;
    scenario_config run_cfg = cfg;
    run_cfg.collector = &collector;
    const double per = packet_error_rate(run_cfg, 24);
    const std::string json = obs::to_json(
        collector.registry(), {.include_timings = false});
    if (reference_json.empty()) {
      reference_per = per;
      reference_json = json;
      continue;
    }
    EXPECT_EQ(per, reference_per) << "threads=" << threads;
    EXPECT_EQ(json, reference_json) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace backfi::sim
