// Recovery-path tests: the hardened receive chain must hold the residual
// near the noise floor under front-end faults that collapse the plain
// chain (the chain-level half of the robustness campaign's story).
#include <gtest/gtest.h>

#include "channel/awgn.h"
#include "channel/backscatter_link.h"
#include "dsp/math_util.h"
#include "dsp/vec_ops.h"
#include "fd/receive_chain.h"
#include "impair/plan.h"
#include "wifi/ppdu.h"

namespace backfi::impair {
namespace {

struct chain_scenario {
  cvec tx;
  cvec rx;
  double noise_power;
};

chain_scenario make_scenario(std::uint64_t seed) {
  dsp::rng gen(seed);
  chain_scenario s;
  s.tx = wifi::random_ppdu(600, {.rate = wifi::wifi_rate::mbps24}, seed).samples;
  const channel::link_budget budget;
  const auto ch = channel::draw_backscatter_channels(budget, 2.0, gen);
  s.rx = channel::apply_channel(s.tx, ch.h_env);
  s.noise_power = ch.noise_power;
  channel::add_awgn(s.rx, s.noise_power, gen);
  return s;
}

/// Whole-buffer residual over the thermal floor after the chain, with the
/// given plan injected at the front-end boundary.
double residual_over_noise_db(const chain_scenario& s,
                              const impairment_plan& plan,
                              fd::receive_chain_config cfg) {
  if (plan.any_front_end()) {
    cfg.front_end_hook = [&plan](std::span<cplx> samples) {
      plan.apply_front_end(samples);
    };
  }
  fd::receive_chain_scratch scratch;
  (void)fd::run_receive_chain(s.tx, s.rx, 0, 320, cfg, &scratch);
  // Skip the convolution warm-up edge at the buffer head.
  const auto body = std::span(scratch.cleaned).subspan(64);
  return dsp::to_db(dsp::mean_power(body) / s.noise_power);
}

fd::receive_chain_config hardened_config() {
  fd::receive_chain_config cfg;
  cfg.digital.widely_linear = true;
  cfg.digital.remove_dc = true;
  cfg.track_residual_gain = true;
  return cfg;
}

TEST(RecoveryTest, HardenedChainMatchesPlainOnCleanLink) {
  const chain_scenario s = make_scenario(11);
  const impairment_plan clean;
  const double plain = residual_over_noise_db(s, clean, {});
  const double hard = residual_over_noise_db(s, clean, hardened_config());
  EXPECT_LT(hard, plain + 1.0);  // hardening must not cost a clean link
}

TEST(RecoveryTest, TrackingRecoversCfoRotatedResidual) {
  const chain_scenario s = make_scenario(12);
  impairment_plan plan;
  plan.cfo.offset_hz = 100.0;
  const double plain = residual_over_noise_db(s, plan, {});
  const double hard = residual_over_noise_db(s, plan, hardened_config());
  // The static fit goes stale as the analog residual rotates: the plain
  // chain re-grows tens of dB of SI; per-block tracking follows it down.
  EXPECT_GT(plain, 15.0);
  EXPECT_LT(hard, 6.0);
  EXPECT_GT(plain - hard, 12.0);
}

TEST(RecoveryTest, WidelyLinearStageRemovesIqImage) {
  const chain_scenario s = make_scenario(13);
  impairment_plan plan;
  plan.iq.gain_mismatch_db = 1.0;
  plan.iq.phase_skew_deg = 3.0;
  const double plain = residual_over_noise_db(s, plan, {});
  const double hard = residual_over_noise_db(s, plan, hardened_config());
  EXPECT_GT(plain, 15.0);  // conjugate image over the linear-only chain
  EXPECT_LT(hard, 6.0);
  EXPECT_GT(plain - hard, 12.0);
}

TEST(RecoveryTest, DcRemovalCleansFrontEndOffset) {
  const chain_scenario s = make_scenario(14);
  impairment_plan plan;
  plan.iq.dc_over_rms = 0.5;  // of the (tiny) post-analog residual
  fd::receive_chain_config dc_only;
  dc_only.digital.remove_dc = true;
  const double plain = residual_over_noise_db(s, plan, {});
  const double hard = residual_over_noise_db(s, plan, dc_only);
  EXPECT_LT(hard, plain - 3.0);
}

TEST(RecoveryTest, FrontEndHookRunsAfterAnalogStage) {
  // The hook must see the analog-cancelled waveform, not the raw rx: its
  // observed power is the analog residual, orders of magnitude below rx.
  const chain_scenario s = make_scenario(15);
  double hook_power = -1.0;
  fd::receive_chain_config cfg;
  cfg.front_end_hook = [&hook_power](std::span<cplx> samples) {
    hook_power = dsp::mean_power(samples);
  };
  fd::receive_chain_scratch scratch;
  (void)fd::run_receive_chain(s.tx, s.rx, 0, 320, cfg, &scratch);
  ASSERT_GE(hook_power, 0.0);
  EXPECT_LT(hook_power, 0.01 * dsp::mean_power(s.rx));
}

}  // namespace
}  // namespace backfi::impair
