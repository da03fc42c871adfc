// Support-aware synthesis (sim/synthesis.h) against the full-range call
// sequence it replaced: apply_channel_into(h_f), apply_channel_into(h_env),
// backscatter_into, hadamard_into, apply_channel_into(h_b),
// apply_constant_phase, add_in_place. Every comparison is memcmp, so a
// -0.0 / +0.0 flip fails just like a changed value would.
#include "sim/synthesis.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "channel/awgn.h"
#include "channel/multipath.h"
#include "dsp/rng.h"
#include "dsp/vec_ops.h"
#include "impair/plan.h"
#include "impair/rf_impairments.h"
#include "reader/excitation.h"
#include "sim/stream_sim.h"
#include "tag/wake_detector.h"

namespace backfi::sim {
namespace {

constexpr std::size_t samples_per_us = 20;

bool same_samples(std::span<const cplx> a, std::span<const cplx> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(cplx)) == 0);
}

cvec random_taps(std::size_t n, dsp::rng& gen) {
  cvec taps(n);
  for (cplx& t : taps) t = 0.3 * gen.complex_gaussian();
  return taps;
}

tag::tag_config test_tag() {
  tag::tag_config cfg;
  cfg.rate = {tag::tag_modulation::qpsk, phy::code_rate::half, 2e6};
  return cfg;
}

// Samples from the tag origin to the end of a payload of `bits`.
std::size_t schedule_length(const tag::tag_device& device, std::size_t bits) {
  const tag::tag_config& c = device.config();
  return (c.silent_us + c.preamble_us) * samples_per_us +
         (c.sync_symbols + device.payload_symbols(bits)) *
             device.samples_per_symbol();
}

struct synth_case {
  cvec x;
  cvec h_f, h_env, h_b;
  tag::tag_transmission tag_tx;
  double theta = 0.0;
  std::size_t wake_bits = 16;
};

// Runs the full-range reference and the helper on one case; checks the wake
// window (before and after add_backscatter) and the received capture.
void expect_bit_identical(const synth_case& c, const std::string& what) {
  cvec incident, reflected, backscatter, rx_ref;
  channel::apply_channel_into(c.x, c.h_f, incident);
  channel::apply_channel_into(c.x, c.h_env, rx_ref);
  dsp::hadamard_into(incident, c.tag_tx.reflection, reflected);
  channel::apply_channel_into(reflected, c.h_b, backscatter);
  impair::apply_constant_phase(backscatter, c.theta);
  dsp::add_in_place(rx_ref, backscatter);

  synthesis_scratch scratch;
  const std::span<const cplx> wake =
      wake_incident(c.x, c.h_f, c.wake_bits, scratch);
  const std::size_t window =
      std::min((c.wake_bits + 4) * samples_per_us, c.x.size());
  ASSERT_EQ(wake.size(), window) << what;
  EXPECT_TRUE(same_samples(wake, std::span<const cplx>(incident).first(window)))
      << what;

  cvec rx;
  channel::apply_channel_into(c.x, c.h_env, rx);
  add_backscatter(c.x, c.h_f, c.h_b, c.tag_tx, c.theta, rx, scratch);
  EXPECT_TRUE(same_samples(rx, rx_ref)) << what;
  // The span handed to the wake detector still holds the wake window.
  EXPECT_TRUE(same_samples(std::span<const cplx>(scratch.incident).first(window),
                           std::span<const cplx>(incident).first(window)))
      << what;
}

synth_case make_case(std::size_t n_ppdus, std::size_t origin, double theta,
                     std::size_t hb_taps, std::uint64_t seed,
                     std::size_t payload_bits = 120) {
  dsp::rng gen(seed);
  reader::excitation_config ex_cfg;
  ex_cfg.ppdu_bytes = 600;  // the whole 120-bit schedule fits from origin 330
  ex_cfg.n_ppdus = n_ppdus;
  ex_cfg.payload_seed = seed;
  synth_case c;
  c.x = reader::build_excitation(ex_cfg).samples;
  c.h_f = random_taps(3, gen);
  c.h_env = random_taps(6, gen);
  c.h_b = random_taps(hb_taps, gen);
  c.theta = theta;
  const tag::tag_device device(test_tag());
  device.backscatter_into(gen.random_bits(payload_bits), c.x.size(), origin,
                          c.tag_tx);
  return c;
}

TEST(Synthesis, MatchesFullRangeForEveryBackscatterTapCount) {
  // 96 and 103 taps are far longer than any tag link the simulation draws;
  // the support cut stays exact there too, as every convolution runs the
  // same gather kernel.
  for (const std::size_t taps : {1, 2, 3, 4, 5, 6, 7, 8, 96, 103}) {
    for (const double theta : {0.0, 0.4, 2.5, -2.0, 3.141592653589793}) {
      const synth_case c = make_case(1, 330, theta, taps, 10 + taps);
      ASSERT_LT(c.tag_tx.data_end + taps, c.x.size());
      expect_bit_identical(c, "taps " + std::to_string(taps) + " theta " +
                                  std::to_string(theta));
    }
  }
}

TEST(Synthesis, RotationWithNegativeCosineProducesNegativeZeros) {
  // cos(theta) < 0 turns the +0.0 backscatter outside the support into
  // -0.0 in the full-range sequence; adding those must stay a no-op.
  const synth_case c = make_case(1, 330, 2.5, 3, 77);
  cvec incident, reflected, backscatter;
  channel::apply_channel_into(c.x, c.h_f, incident);
  dsp::hadamard_into(incident, c.tag_tx.reflection, reflected);
  channel::apply_channel_into(reflected, c.h_b, backscatter);
  impair::apply_constant_phase(backscatter, c.theta);
  std::size_t negative_zeros = 0;
  for (const cplx& v : backscatter)
    negative_zeros += (v.real() == 0.0 && std::signbit(v.real())) ||
                      (v.imag() == 0.0 && std::signbit(v.imag()));
  EXPECT_GT(negative_zeros, 0u);
  expect_bit_identical(c, "cos < 0");
}

TEST(Synthesis, SupportEndingExactlyAtCaptureEnd) {
  const tag::tag_device device(test_tag());
  const std::size_t bits = 120;
  synth_case c = make_case(1, 0, 0.7, 4, 5, bits);
  ASSERT_GT(c.x.size(), schedule_length(device, bits));
  const std::size_t origin = c.x.size() - schedule_length(device, bits);
  dsp::rng gen(6);
  device.backscatter_into(gen.random_bits(bits), c.x.size(), origin, c.tag_tx);
  ASSERT_EQ(c.tag_tx.data_end, c.x.size());
  ASSERT_EQ(c.tag_tx.n_payload_symbols, device.payload_symbols(bits));
  expect_bit_identical(c, "support ends at capture end");
}

TEST(Synthesis, PreambleClippedByCapture) {
  const tag::tag_device device(test_tag());
  synth_case c = make_case(1, 0, -2.0, 5, 8);
  // Preamble starts 100 samples before the end: only part of it fits, no
  // sync symbol does.
  const std::size_t silent = device.config().silent_us * samples_per_us;
  const std::size_t origin = c.x.size() - 100 - silent;
  dsp::rng gen(9);
  device.backscatter_into(gen.random_bits(120), c.x.size(), origin, c.tag_tx);
  ASSERT_LT(c.tag_tx.preamble_start, c.x.size());
  ASSERT_GT(c.tag_tx.sync_start, c.x.size());
  ASSERT_GT(c.tag_tx.data_end, c.x.size());
  expect_bit_identical(c, "preamble clipped");

  // A schedule that starts past the capture reflects nothing at all.
  device.backscatter_into(gen.random_bits(120), c.x.size(), c.x.size() + 5,
                          c.tag_tx);
  expect_bit_identical(c, "schedule past the capture");
}

TEST(Synthesis, PayloadNotFitting) {
  // The payload runs past the capture: the last symbols are dropped and the
  // support ends at the last emitted symbol.
  const tag::tag_device device(test_tag());
  synth_case c = make_case(1, 0, 1.0, 3, 12);
  ASSERT_GT(c.x.size(), schedule_length(device, 120));
  const std::size_t origin = c.x.size() - schedule_length(device, 120) / 2;
  dsp::rng gen(13);
  device.backscatter_into(gen.random_bits(120), c.x.size(), origin, c.tag_tx);
  ASSERT_LT(c.tag_tx.n_payload_symbols, device.payload_symbols(120));
  expect_bit_identical(c, "payload not fitting");
}

TEST(Synthesis, WakeWindowOverlappingSupport) {
  // Origin 0: the preamble starts at 320, inside the 400-sample window.
  const synth_case c = make_case(1, 0, 0.3, 3, 14);
  ASSERT_LT(c.tag_tx.preamble_start, 20u * samples_per_us);
  expect_bit_identical(c, "wake window overlaps support");
}

TEST(Synthesis, MultiPpduCapture) {
  for (const std::size_t n : {2u, 3u}) {
    const synth_case c = make_case(n, 350, 2.2, 6, 20 + n);
    expect_bit_identical(c, "n_ppdus " + std::to_string(n));
  }
}

TEST(Synthesis, RejectsMalformedInputs) {
  synth_case c = make_case(1, 330, 0.0, 3, 30);
  synthesis_scratch scratch;
  cvec rx(c.x.size() - 1);
  EXPECT_THROW(add_backscatter(c.x, c.h_f, c.h_b, c.tag_tx, 0.0, rx, scratch),
               std::invalid_argument);
  rx.resize(c.x.size());
  // A schedule whose indices wrapped around (origin near SIZE_MAX) has no
  // well-defined support.
  c.tag_tx.preamble_start = c.tag_tx.data_end + 1;
  EXPECT_THROW(add_backscatter(c.x, c.h_f, c.h_b, c.tag_tx, 0.0, rx, scratch),
               std::invalid_argument);
}

// build_stream_capture before the support-aware synthesis: the same seeded
// draw order, every channel product full-range. Appends the LO phase of
// every packet the tag answered to `thetas`.
stream_capture reference_stream_capture(const stream_scenario_config& config,
                                        std::vector<double>& thetas) {
  const scenario_config& sc = config.scenario;
  dsp::rng gen(sc.seed);
  stream_capture cap;
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
  cap.x.assign(config.n_packets * (ex_len + gap), cplx{0.0, 0.0});
  cap.y.assign(cap.x.size(), cplx{0.0, 0.0});
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
    ex_cfg.payload_seed = gen.next_u64();
    if (k > 0)
      channel::evolve_multipath(h_f, drift_profile, config.forward_drift, gen);
    const double theta = lo.step(config.lo_drift, gen);
    reader::build_excitation_into(ex_cfg, ex);
    std::copy(ex.samples.begin(), ex.samples.end(), cap.x.begin() + offset);
    channel::apply_channel_into(ex.samples, h_f, incident);
    const std::size_t wake_window = std::min<std::size_t>(
        (ex_cfg.wake_bits + 4) * samples_per_us, incident.size());
    const auto wake =
        tag::detect_wake(std::span<const cplx>(incident).first(wake_window),
                         ex.wake_preamble, incident_dbm);
    channel::apply_channel_into(ex.samples, channels.h_env, si);
    auto y_pkt = std::span<cplx>(cap.y).subspan(offset, ex_len);
    std::copy(si.begin(), si.end(), y_pkt.begin());
    if (wake.woke) {
      cap.woke[k] = 1;
      thetas.push_back(theta);
      const std::size_t jitter =
          sc.tag_jitter_samples > 0 ? gen.uniform_int(sc.tag_jitter_samples + 1)
                                    : 0;
      cap.payloads[k] = gen.random_bits(sc.payload_bits);
      device.backscatter_into(cap.payloads[k], ex.samples.size(),
                              wake.preamble_end_sample + jitter, tag_tx);
      dsp::hadamard_into(incident, tag_tx.reflection, reflected);
      channel::apply_channel_into(reflected, channels.h_b, backscatter);
      impair::apply_constant_phase(backscatter, theta);
      dsp::add_in_place(y_pkt, backscatter);
    }
    channel::add_awgn(std::span<cplx>(cap.y).subspan(offset, ex_len + gap),
                      channels.noise_power, gen);
  }
  cap.final_h_f = std::move(h_f);
  cap.final_lo_phase_rad = lo.phase_rad;
  return cap;
}

// Returns the LO phases of the packets the tag answered.
std::vector<double> expect_same_capture(const stream_scenario_config& cfg,
                                        const std::string& what) {
  std::vector<double> thetas;
  const stream_capture got = build_stream_capture(cfg);
  const stream_capture ref = reference_stream_capture(cfg, thetas);
  EXPECT_TRUE(same_samples(got.x, ref.x)) << what;
  EXPECT_TRUE(same_samples(got.y, ref.y)) << what;
  EXPECT_TRUE(same_samples(got.final_h_f, ref.final_h_f)) << what;
  EXPECT_EQ(got.final_lo_phase_rad, ref.final_lo_phase_rad) << what;
  EXPECT_EQ(got.woke, ref.woke) << what;
  EXPECT_EQ(got.payloads, ref.payloads) << what;
  return thetas;
}

stream_scenario_config stream_case(std::uint64_t seed) {
  stream_scenario_config cfg;
  cfg.scenario.excitation.ppdu_bytes = 300;
  cfg.scenario.excitation.n_ppdus = 2;
  cfg.scenario.payload_bits = 96;
  cfg.scenario.tag.rate = {tag::tag_modulation::qpsk, phy::code_rate::half,
                           2e6};
  cfg.scenario.tag_distance_m = 1.5;
  cfg.scenario.tag_jitter_samples = 5;
  cfg.scenario.seed = seed;
  cfg.n_packets = 6;
  cfg.forward_drift.coherence_packets = 3.0;
  cfg.lo_drift.step_std_rad = 1.5;
  return cfg;
}

TEST(Synthesis, StreamCaptureMatchesFullRangeReference) {
  std::size_t answered = 0, negative_cos = 0;
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    for (const double theta :
         expect_same_capture(stream_case(seed), "seed " + std::to_string(seed))) {
      ++answered;
      if (std::cos(theta) < 0.0) ++negative_cos;
    }
  }
  EXPECT_GT(answered, 0u);
  EXPECT_GT(negative_cos, 0u);
}

TEST(Synthesis, StreamCaptureWithoutWakeOrRoomForThePayload) {
  // Far range: the tag sleeps through the packets.
  stream_scenario_config far = stream_case(5);
  far.scenario.tag_distance_m = 40.0;
  EXPECT_LT(expect_same_capture(far, "far").size(), far.n_packets);
  // A payload longer than the excitation: every reply is cut short.
  stream_scenario_config cut = stream_case(6);
  cut.scenario.excitation.n_ppdus = 1;
  cut.scenario.excitation.ppdu_bytes = 40;
  cut.scenario.payload_bits = 2000;
  EXPECT_GT(expect_same_capture(cut, "payload not fitting").size(), 0u);
}

// run_backscatter_trial's capture of a woke trial whose payload fits, drawn
// in the draw-order contract's order (payload seed, channels, jitter,
// payload bits, noise) with every channel product full-range and the
// impairment plan re-seeded as the trial does.
cvec reference_trial_capture(const scenario_config& sc) {
  dsp::rng gen(sc.seed);
  reader::excitation_config ex_cfg = sc.excitation;
  ex_cfg.tag_id = sc.tag.id;
  ex_cfg.payload_seed = gen.next_u64();
  const reader::excitation ex = reader::build_excitation(ex_cfg);
  const auto channels =
      channel::draw_backscatter_channels(sc.budget, sc.tag_distance_m, gen);
  cvec incident, rx, reflected, backscatter;
  channel::apply_channel_into(ex.samples, channels.h_f, incident);
  const std::size_t wake_window = std::min<std::size_t>(
      (ex_cfg.wake_bits + 4) * samples_per_us, incident.size());
  const auto wake = tag::detect_wake(
      std::span<const cplx>(incident).first(wake_window), ex.wake_preamble,
      channel::incident_power_at_tag_dbm(sc.budget, sc.tag_distance_m));
  EXPECT_TRUE(wake.woke);
  const std::size_t jitter =
      sc.tag_jitter_samples > 0 ? gen.uniform_int(sc.tag_jitter_samples + 1)
                                : 0;
  const tag::tag_device device(sc.tag);
  tag::tag_transmission tag_tx =
      device.backscatter(gen.random_bits(sc.payload_bits), ex.samples.size(),
                         wake.preamble_end_sample + jitter);
  impair::impairment_plan faults = sc.impairments;
  faults.seed = faults.seed * 0x9e3779b97f4a7c15ULL + sc.seed;
  faults.apply_to_reflection(tag_tx.reflection, tag_tx.preamble_start,
                             tag_tx.data_end);
  channel::apply_channel_into(ex.samples, channels.h_env, rx);
  dsp::hadamard_into(incident, tag_tx.reflection, reflected);
  channel::apply_channel_into(reflected, channels.h_b, backscatter);
  dsp::add_in_place(rx, backscatter);
  channel::add_awgn(rx, channels.noise_power, gen);
  faults.apply_at_antenna(rx);
  return rx;
}

scenario_config trial_case(std::uint64_t seed) {
  scenario_config cfg;
  cfg.excitation.ppdu_bytes = 1500;
  cfg.payload_bits = 400;
  cfg.tag.rate = {tag::tag_modulation::qpsk, phy::code_rate::half, 2e6};
  cfg.tag_distance_m = 1.5;
  cfg.seed = seed;
  return cfg;
}

// Runs the trial on an explicit workspace and returns its capture after
// checking it against the reference.
cvec expect_same_trial_capture(const scenario_config& cfg,
                               const std::string& what) {
  trial_workspace ws;
  const trial_result r = run_backscatter_trial(cfg, ws);
  EXPECT_TRUE(r.woke) << what;
  EXPECT_EQ(r.payload_symbols,
            tag::tag_device(cfg.tag).payload_symbols(cfg.payload_bits))
      << what;
  EXPECT_TRUE(same_samples(ws.rx, reference_trial_capture(cfg))) << what;
  return ws.rx;
}

TEST(Synthesis, TrialCaptureMatchesFullRangeReference) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    scenario_config cfg = trial_case(seed);
    ASSERT_GT(cfg.tag_jitter_samples, 0u);
    expect_same_trial_capture(cfg, "seed " + std::to_string(seed));
    cfg.tag_jitter_samples = 0;
    expect_same_trial_capture(cfg, "no jitter, seed " + std::to_string(seed));
  }

  // Reflection faults (oscillator jitter, brownout), then antenna faults
  // (interferer, saturation bursts) on top; each layer changes the capture.
  scenario_config faulty = trial_case(5);
  const cvec clean = expect_same_trial_capture(faulty, "clean");
  faulty.impairments.tag_jitter =
      impair::plan_for(impair::fault_class::tag_oscillator_jitter, 0.5, 0)
          .tag_jitter;
  faulty.impairments.brownout =
      impair::plan_for(impair::fault_class::tag_brownout, 1.0, 0).brownout;
  const cvec reflection = expect_same_trial_capture(faulty, "reflection");
  EXPECT_FALSE(same_samples(reflection, clean));
  faulty.impairments.interferer =
      impair::plan_for(impair::fault_class::wifi_interferer, 1.0, 0).interferer;
  faulty.impairments.saturation =
      impair::plan_for(impair::fault_class::adc_saturation_bursts, 1.0, 0)
          .saturation;
  EXPECT_FALSE(same_samples(expect_same_trial_capture(faulty, "both"),
                            reflection));
}

}  // namespace
}  // namespace backfi::sim
