#include <gtest/gtest.h>

#include <cmath>

#include "dsp/math_util.h"
#include "dsp/rng.h"
#include "dsp/vec_ops.h"
#include "impair/plan.h"
#include "impair/rf_impairments.h"

namespace backfi::impair {
namespace {

/// Whether any injector of the plan is active.
bool any_injector(const impairment_plan& plan) {
  return plan.cfo.offset_hz != 0.0 || plan.cfo.drift_hz_per_s != 0.0 ||
         plan.phase_noise.linewidth_hz > 0.0 ||
         plan.iq.gain_mismatch_db != 0.0 || plan.iq.phase_skew_deg != 0.0 ||
         plan.iq.dc_offset != cplx{0.0, 0.0} || plan.iq.dc_over_rms != 0.0 ||
         plan.sampling.ppm != 0.0 || plan.saturation.bursts_per_ms > 0.0 ||
         plan.interferer.bursts_per_ms > 0.0 ||
         plan.tag_jitter.clock_ppm != 0.0 ||
         plan.tag_jitter.phase_jitter_rad > 0.0 ||
         plan.brownout.probability > 0.0 ||
         plan.canceller_drift.final_leakage_db > -200.0 ||
         plan.stage_failure.leakage_db > -200.0;
}

/// Complex tone: constant-magnitude circular probe signal.
cvec make_tone(std::size_t n, double cycles_per_sample = 0.03) {
  cvec x(n);
  for (std::size_t i = 0; i < n; ++i)
    x[i] = std::polar(1.0, two_pi * cycles_per_sample * static_cast<double>(i));
  return x;
}

TEST(CfoTest, RotatesByIntegratedFrequency) {
  cfo_config cfg;
  cfg.offset_hz = 1000.0;
  cvec x(64, cplx{1.0, 0.0});
  apply_cfo(cfg, x);
  // Sample n carries phase 2*pi*f*n*Ts; magnitude is untouched.
  const std::size_t n = 40;
  const double expected =
      two_pi * cfg.offset_hz * static_cast<double>(n) * sample_period_s;
  EXPECT_NEAR(std::arg(x[n]), expected, 1e-9);
  EXPECT_NEAR(std::abs(x[n]), 1.0, 1e-12);
}

TEST(CfoTest, StartSampleContinuesThePhaseRamp) {
  cfo_config cfg;
  cfg.offset_hz = 2500.0;
  cvec whole(100, cplx{1.0, 0.0});
  apply_cfo(cfg, whole);
  cvec tail(40, cplx{1.0, 0.0});
  apply_cfo(cfg, tail, 60);
  for (std::size_t i = 0; i < tail.size(); ++i)
    EXPECT_NEAR(std::abs(tail[i] - whole[60 + i]), 0.0, 1e-12);
}

TEST(PhaseNoiseTest, PreservesMagnitudeAndIsSeedDeterministic) {
  phase_noise_config cfg;
  cfg.linewidth_hz = 100.0;
  cvec a = make_tone(256), b = make_tone(256);
  dsp::rng gen_a(7), gen_b(7);
  apply_phase_noise(cfg, a, gen_a);
  apply_phase_noise(cfg, b, gen_b);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(std::abs(a[i]), 1.0, 1e-12);
    EXPECT_EQ(a[i], b[i]);
  }
}

TEST(IqImbalanceTest, ZeroConfigIsIdentity) {
  const cvec ref = make_tone(64);
  cvec x = ref;
  apply_iq_imbalance({}, x);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(x[i], ref[i]);
}

TEST(IqImbalanceTest, GainMismatchCreatesConjugateImage) {
  // A positive-frequency tone through a skewed front end leaks energy into
  // the conjugate (negative-frequency) direction: correlate the output
  // with conj(tone) — ideal hardware leaves that projection at zero.
  iq_imbalance_config cfg;
  cfg.gain_mismatch_db = 1.0;
  const cvec tone = make_tone(1024);
  cvec x = tone;
  apply_iq_imbalance(cfg, x);
  cplx image{0.0, 0.0};
  for (std::size_t i = 0; i < x.size(); ++i) image += x[i] * tone[i];
  image /= static_cast<double>(x.size());
  // 1 dB mismatch: image amplitude (g-1)/2 ~ -24.6 dB, far above zero.
  EXPECT_GT(std::abs(image), 0.02);
}

TEST(IqImbalanceTest, DcOverRmsAddsTheConfiguredOffset) {
  iq_imbalance_config cfg;
  cfg.dc_over_rms = 0.1;
  cvec x = make_tone(512);
  apply_iq_imbalance(cfg, x);
  cplx mean{0.0, 0.0};
  for (const cplx& v : x) mean += v;
  mean /= static_cast<double>(x.size());
  // Tone averages to ~0, so the mean is the injected DC: 0.1 * rms(=1).
  EXPECT_NEAR(std::abs(mean), 0.1, 0.02);
}

TEST(SaturationBurstTest, AddsHighAmplitudeBursts) {
  saturation_burst_config cfg;
  cfg.bursts_per_ms = 50.0;
  cfg.mean_duration_us = 2.0;
  cfg.amplitude_over_rms = 40.0;
  cvec x = make_tone(20000);
  dsp::rng gen(3);
  apply_saturation_bursts(cfg, x, gen);
  double peak = 0.0;
  for (const cplx& v : x) peak = std::max(peak, std::abs(v));
  EXPECT_GT(peak, 10.0);  // bursts tower over the unit tone
}

TEST(InterfererTest, RaisesPowerByRoughlyTheConfiguredRatio) {
  interferer_config cfg;
  cfg.bursts_per_ms = 1e9;  // effectively always on
  cfg.mean_duration_us = 1e9;
  cfg.power_db_over_signal = 10.0;
  cvec x = make_tone(4096);
  dsp::rng gen(4);
  apply_interferer(cfg, x, gen);
  const double gain_db = dsp::to_db(dsp::mean_power(x));
  EXPECT_GT(gain_db, 8.0);   // 1 + 10x interference ~ +10.4 dB
  EXPECT_LT(gain_db, 13.0);
}

TEST(OscillatorJitterTest, OnlyTouchesTheActiveRegion) {
  oscillator_jitter_config cfg;
  cfg.clock_ppm = 5000.0;
  cfg.phase_jitter_rad = 0.05;
  cvec x = make_tone(400);
  const cvec ref = x;
  dsp::rng gen(5);
  apply_oscillator_jitter(cfg, x, 100, 300, gen);
  for (std::size_t i = 0; i < 100; ++i) EXPECT_EQ(x[i], ref[i]);
  for (std::size_t i = 300; i < x.size(); ++i) EXPECT_EQ(x[i], ref[i]);
  double changed = 0.0;
  for (std::size_t i = 100; i < 300; ++i) changed += std::norm(x[i] - ref[i]);
  EXPECT_GT(changed, 0.0);
}

TEST(BrownoutTest, ZeroesAContiguousRunWhenItFires) {
  brownout_config cfg;
  cfg.probability = 1.0;
  cfg.duration_us = 1.0;
  cvec x(2000, cplx{1.0, 0.0});
  dsp::rng gen(6);
  ASSERT_TRUE(apply_brownout(cfg, x, 0, x.size(), gen));
  std::size_t zeros = 0;
  for (const cplx& v : x) zeros += (v == cplx{0.0, 0.0}) ? 1 : 0;
  EXPECT_EQ(zeros, static_cast<std::size_t>(sample_rate_hz / 1e6));
}

TEST(BrownoutTest, NeverFiresAtZeroProbability) {
  brownout_config cfg;
  cfg.probability = 0.0;
  cvec x(100, cplx{1.0, 0.0});
  dsp::rng gen(7);
  EXPECT_FALSE(apply_brownout(cfg, x, 0, x.size(), gen));
}

TEST(CancellerDriftTest, LeakageRampsOnlyAfterAdaptEnd) {
  canceller_drift_config cfg;
  cfg.final_leakage_db = -20.0;
  const cvec tx = make_tone(2000);
  cvec cleaned(2000, cplx{0.0, 0.0});
  dsp::rng gen(8);
  apply_canceller_drift(cfg, tx, cleaned, 500, gen);
  EXPECT_EQ(dsp::mean_power(std::span(cleaned).first(500)), 0.0);
  const double early =
      dsp::mean_power(std::span(cleaned).subspan(500, 300));
  const double late =
      dsp::mean_power(std::span(cleaned).subspan(1700, 300));
  EXPECT_GT(late, 10.0 * early);  // amplitude grows linearly to the end
}

TEST(CancellerStageFailureTest, LeakageStartsAtConfiguredFraction) {
  canceller_stage_failure_config cfg;
  cfg.leakage_db = -20.0;
  cfg.at_frac = 0.5;
  // White probe: a tone would alias the random leakage channel's frequency
  // response into the level check.
  dsp::rng tx_gen(10);
  cvec tx(1000);
  for (cplx& v : tx) v = tx_gen.complex_gaussian();
  cvec cleaned(1000, cplx{0.0, 0.0});
  dsp::rng gen(9);
  apply_canceller_stage_failure(cfg, tx, cleaned, gen);
  EXPECT_EQ(dsp::mean_power(std::span(cleaned).first(500)), 0.0);
  const double after = dsp::mean_power(std::span(cleaned).subspan(500));
  EXPECT_NEAR(dsp::to_db(after), -20.0, 3.0);
}

TEST(PlanTest, DefaultPlanIsInert) {
  impairment_plan plan;
  EXPECT_FALSE(any_injector(plan));
  EXPECT_FALSE(plan.any_front_end());
  cvec x = make_tone(128);
  const cvec ref = x;
  plan.apply_to_rx(x);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(x[i], ref[i]);
}

TEST(PlanTest, FrontEndSplitMatchesInjectorDomain) {
  impairment_plan antenna_only;
  antenna_only.interferer.bursts_per_ms = 1.0;
  EXPECT_TRUE(any_injector(antenna_only));
  EXPECT_FALSE(antenna_only.any_front_end());

  impairment_plan front_end;
  front_end.cfo.offset_hz = 10.0;
  EXPECT_TRUE(any_injector(front_end));
  EXPECT_TRUE(front_end.any_front_end());
}

TEST(PlanTest, IndependentStreamsPerInjector) {
  // Toggling one injector must not change another's random draws: the
  // brownout realization is identical with and without the interferer.
  impairment_plan a;
  a.brownout.probability = 1.0;
  a.brownout.duration_us = 1.0;
  impairment_plan b = a;
  b.interferer.bursts_per_ms = 5.0;

  cvec ra(4000, cplx{1.0, 0.0}), rb(4000, cplx{1.0, 0.0});
  a.apply_to_reflection(ra, 0, ra.size());
  b.apply_to_reflection(rb, 0, rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) EXPECT_EQ(ra[i], rb[i]);
}

TEST(PlanTest, SeverityZeroIsCleanForEveryClass) {
  for (const fault_class fault : all_fault_classes()) {
    const impairment_plan plan = plan_for(fault, 0.0, 1);
    EXPECT_FALSE(any_injector(plan)) << fault_class_name(fault);
  }
}

TEST(PlanTest, SeverityOneActivatesEveryClass) {
  for (const fault_class fault : all_fault_classes()) {
    const impairment_plan plan = plan_for(fault, 1.0, 1);
    EXPECT_TRUE(any_injector(plan)) << fault_class_name(fault);
  }
}

TEST(LoDriftTest, DisabledStepConsumesZeroDrawsAndHoldsPhase) {
  lo_drift_state state;
  dsp::rng gen(11);
  dsp::rng twin(11);
  EXPECT_DOUBLE_EQ(state.step(lo_drift_config{}, gen), 0.0);
  EXPECT_DOUBLE_EQ(state.phase_rad, 0.0);
  EXPECT_EQ(gen.next_u64(), twin.next_u64());  // stream untouched
}

TEST(LoDriftTest, EnabledStepWalksByExactlyOneGaussianDraw) {
  const lo_drift_config cfg{.step_std_rad = 0.25};
  ASSERT_TRUE(cfg.enabled());
  lo_drift_state state;
  dsp::rng gen(21);
  dsp::rng twin(21);
  double expected = 0.0;
  for (int k = 0; k < 5; ++k) {
    const double phase = state.step(cfg, gen);
    expected += 0.25 * twin.gaussian();  // one draw per packet, in order
    EXPECT_DOUBLE_EQ(phase, expected);
    EXPECT_DOUBLE_EQ(state.phase_rad, expected);
  }
  EXPECT_EQ(gen.next_u64(), twin.next_u64());
}

TEST(LoDriftTest, ApplyConstantPhaseRotatesEverySample) {
  cvec x = {cplx{1.0, 0.0}, cplx{0.0, 2.0}, cplx{-1.5, 0.5}};
  const cvec before = x;
  const double theta = 0.7;
  apply_constant_phase(x, theta);
  const cplx rot{std::cos(theta), std::sin(theta)};
  for (std::size_t k = 0; k < x.size(); ++k) {
    EXPECT_NEAR(x[k].real(), (before[k] * rot).real(), 1e-12);
    EXPECT_NEAR(x[k].imag(), (before[k] * rot).imag(), 1e-12);
  }

  // Zero phase is an exact no-op (early return, no rounding).
  cvec y = before;
  apply_constant_phase(y, 0.0);
  for (std::size_t k = 0; k < y.size(); ++k) EXPECT_EQ(y[k], before[k]);
}

}  // namespace
}  // namespace backfi::impair
