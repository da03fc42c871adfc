#include "fd/canceller.h"

#include <gtest/gtest.h>
#include <array>
#include <string>

#include "channel/awgn.h"
#include "channel/multipath.h"
#include "dsp/math_util.h"
#include "dsp/rng.h"
#include "dsp/vec_ops.h"
#include "wifi/ppdu.h"

namespace backfi::fd {
namespace {

/// Self-interference scenario: WiFi excitation through an environment
/// channel with strong leakage, plus thermal noise.
struct si_scenario {
  cvec tx;
  cvec rx;
  double noise_power;
};

si_scenario make_scenario(std::uint64_t seed, double noise_db = -80.0) {
  dsp::rng gen(seed);
  si_scenario s;
  s.tx = wifi::random_ppdu(200, {.rate = wifi::wifi_rate::mbps24}, seed).samples;
  cvec h_env = channel::draw_multipath(
      {.n_taps = 5, .delay_spread_ns = 80.0, .rician_k_db = -100.0,
       .total_gain_db = -45.0},
      gen);
  h_env[0] += 0.1;  // -20 dB circulator leakage
  s.rx = channel::apply_channel(s.tx, h_env);
  s.noise_power = dsp::from_db(noise_db);
  channel::add_awgn(s.rx, s.noise_power, gen);
  return s;
}

/// The whole of rx cancelled by an adapted analog canceller.
cvec cancelled(const analog_canceller& c, std::span<const cplx> tx,
               std::span<const cplx> rx) {
  cvec out;
  double peak = 0.0;
  c.cancel_energy_into(tx, rx, 0, rx.size(), 0.0, out, peak);
  return out;
}

/// The whole of rx cancelled by an adapted digital canceller.
cvec cancelled(const digital_canceller& c, std::span<const cplx> tx,
               std::span<const cplx> rx) {
  canceller_scratch scratch;
  const std::array<dsp::sample_range, 1> whole{{{0, rx.size()}}};
  cvec out;
  c.cancel_into(tx, rx, whole, out, scratch);
  return out;
}

TEST(AnalogCancellerTest, AchievesTensOfDbButIsQuantizationLimited) {
  const si_scenario s = make_scenario(1);
  analog_canceller analog;
  dsp::fir_ls_workspace w;
  analog.adapt({.n_taps = 6}, std::span(s.tx).first(320),
               std::span(s.rx).first(320), w);
  const cvec res = cancelled(analog, s.tx, s.rx);
  const double depth = cancellation_depth_db(s.rx, res);
  EXPECT_GT(depth, 25.0);
  // Finite coefficient resolution keeps the analog stage well short of the
  // ~60 dB a full-precision filter would reach here.
  EXPECT_LT(depth, 55.0);
}

TEST(DigitalCancellerTest, CancelsToNearNoiseFloor) {
  const si_scenario s = make_scenario(2);
  digital_canceller digital;
  canceller_scratch scratch;
  digital.adapt({.n_taps = 8}, std::span(s.tx).first(320),
                std::span(s.rx).first(320), scratch);
  const cvec res = cancelled(digital, s.tx, s.rx);
  // Residual within a few dB of the thermal floor.
  const double resid_db = dsp::to_db(dsp::mean_power(res));
  EXPECT_LT(resid_db, -80.0 + 4.0);
}

TEST(DigitalCancellerTest, MoreTrainingGivesDeeperCancellation) {
  const si_scenario s = make_scenario(3, -60.0);
  double depth_short, depth_long;
  canceller_scratch scratch;
  {
    digital_canceller d;
    d.adapt({.n_taps = 8}, std::span(s.tx).first(80), std::span(s.rx).first(80),
            scratch);
    depth_short = cancellation_depth_db(s.rx, cancelled(d, s.tx, s.rx));
  }
  {
    digital_canceller d;
    d.adapt({.n_taps = 8}, std::span(s.tx).first(640),
            std::span(s.rx).first(640), scratch);
    depth_long = cancellation_depth_db(s.rx, cancelled(d, s.tx, s.rx));
  }
  EXPECT_GT(depth_long, depth_short);
}

TEST(DigitalCancellerTest, RecoversTrueChannelTaps) {
  dsp::rng gen(4);
  cvec tx(2000);
  for (auto& v : tx) v = gen.complex_gaussian();
  const cvec h = {{0.1, 0.02}, {-0.03, 0.01}, {0.005, -0.01}};
  const cvec rx = channel::apply_channel(tx, h);
  digital_canceller d;
  canceller_scratch scratch;
  d.adapt({.n_taps = 3}, tx, rx, scratch);
  for (std::size_t k = 0; k < h.size(); ++k)
    EXPECT_NEAR(std::abs(d.taps()[k] - h[k]), 0.0, 1e-6) << k;
}

TEST(CancellerTest, UnadaptedCancellerIsPassThrough) {
  const si_scenario s = make_scenario(5);
  const analog_canceller analog;
  const cvec res = cancelled(analog, s.tx, s.rx);
  for (std::size_t i = 0; i < 100; ++i)
    EXPECT_EQ(res[i], s.rx[i]);
}

TEST(CancellerTest, SilentPeriodProtectsBackscatter) {
  // The paper's key protocol property: because the canceller adapts while
  // the tag is silent, the backscatter component survives cancellation.
  dsp::rng gen(6);
  si_scenario s = make_scenario(6, -100.0);
  // Backscatter: scaled, delayed, phase-rotated copy starting AFTER the
  // silent window (sample 320 on).
  const double bs_amp = dsp::db_to_amplitude(-55.0);
  cvec backscatter(s.rx.size(), cplx{0.0, 0.0});
  for (std::size_t n = 322; n < s.rx.size(); ++n)
    backscatter[n] = bs_amp * s.tx[n - 2] * dsp::phasor(1.0);
  cvec rx_with_bs = s.rx;
  dsp::add_in_place(rx_with_bs, backscatter);

  digital_canceller d;
  canceller_scratch scratch;
  d.adapt({.n_taps = 8}, std::span(s.tx).first(320),
          std::span(rx_with_bs).first(320), scratch);
  const cvec res = cancelled(d, s.tx, rx_with_bs);

  // Residual after the silent window should retain the backscatter power.
  const auto res_data = std::span(res).subspan(400, res.size() - 400);
  const auto bs_data = std::span(backscatter).subspan(400, backscatter.size() - 400);
  const double kept_db =
      dsp::to_db(dsp::mean_power(res_data) / dsp::mean_power(bs_data));
  EXPECT_NEAR(kept_db, 0.0, 1.0);
}

TEST(CancellerTest, AdaptingDuringBackscatterCancelsIt) {
  // Failure injection: skipping the silent period (adapting while the tag
  // modulates a CONSTANT symbol) absorbs the backscatter into the SI
  // estimate and cancels it — the bug the silent period exists to avoid.
  dsp::rng gen(7);
  si_scenario s = make_scenario(7, -100.0);
  const double bs_amp = dsp::db_to_amplitude(-55.0);
  cvec backscatter(s.rx.size(), cplx{0.0, 0.0});
  for (std::size_t n = 2; n < s.rx.size(); ++n)
    backscatter[n] = bs_amp * s.tx[n - 2] * dsp::phasor(1.0);
  cvec rx_with_bs = s.rx;
  dsp::add_in_place(rx_with_bs, backscatter);

  digital_canceller d;
  canceller_scratch scratch;
  d.adapt({.n_taps = 8}, std::span(s.tx).first(320),
          std::span(rx_with_bs).first(320), scratch);
  const cvec res = cancelled(d, s.tx, rx_with_bs);
  const auto res_data = std::span(res).subspan(400, res.size() - 400);
  const auto bs_data = std::span(backscatter).subspan(400, backscatter.size() - 400);
  const double kept_db =
      dsp::to_db(dsp::mean_power(res_data) / dsp::mean_power(bs_data));
  EXPECT_LT(kept_db, -20.0);  // backscatter mostly destroyed
}

TEST(DigitalCancellerTest, FusedQuantizeCancelMatchesSplitSweepsBitExactly) {
  // The apply kernel with the ADC fused in interleaves the quantizer with
  // the cancellation convolution in chunks; every sample must still carry
  // the exact bits of a full quantize_range_saturation() sweep followed by
  // the kernel without the ADC. Two disjoint ranges must reproduce the full range
  // in-range, with and without the ADC, and a tx shorter than rx must pass
  // the tail through. Cover the plain linear fit and the widely-linear + DC
  // configuration (conj/dc branches run as element-wise tails).
  for (const bool wl : {false, true}) {
    for (const std::size_t tx_cut : {std::size_t{0}, std::size_t{300}}) {
      const si_scenario s = make_scenario(wl ? 31 : 30);
      const std::size_t n = s.rx.size();
      const auto tx = std::span<const cplx>(s.tx).first(n - tx_cut);
      digital_canceller d;
      canceller_scratch scratch;
      // Adapt on a pre-quantized silent window, as the receive chain does.
      const adc_config adc{.bits = 12, .full_scale = agc_full_scale(s.rx)};
      cvec reference_digitized(n);
      unsigned reference_clipped = 0;
      quantize_range_saturation(s.rx.data(), 0, n, adc,
                                reference_digitized.data(), reference_clipped);
      d.adapt({.n_taps = 8, .widely_linear = wl, .remove_dc = wl},
              tx.first(320),
              std::span<const cplx>(reference_digitized).first(320), scratch);
      const std::array<dsp::sample_range, 1> whole{{{0, n}}};
      cvec reference_cleaned;
      d.cancel_into(tx, reference_digitized, whole, reference_cleaned,
                    scratch);
      ASSERT_EQ(reference_cleaned.size(), n);
      if (!wl) {  // no DC estimate: past the end of tx the input passes through
        for (std::size_t i = tx.size(); i < n; ++i)
          ASSERT_EQ(reference_cleaned[i], reference_digitized[i]) << i;
      }

      // The second range straddles the end of tx when it is cut.
      const std::array<dsp::sample_range, 2> split{{{37, 700}, {n - 500, n}}};
      for (const std::span<const dsp::sample_range> ranges :
           {std::span<const dsp::sample_range>(whole),
            std::span<const dsp::sample_range>(split)}) {
        cvec digitized, cleaned, ranged;
        unsigned clipped = 0;
        fused_adc fused{adc, digitized, clipped};
        d.cancel_into(tx, s.rx, ranges, cleaned, scratch, &fused);
        d.cancel_into(tx, reference_digitized, ranges, ranged, scratch);
        if (ranges.size() == 1) {
          EXPECT_EQ(clipped != 0, reference_clipped != 0);
        }
        ASSERT_EQ(digitized.size(), n);
        ASSERT_EQ(cleaned.size(), n);
        ASSERT_EQ(ranged.size(), n);
        for (const dsp::sample_range& r : ranges) {
          for (std::size_t i = r.begin; i < r.end; ++i) {
            const std::string at = "wl " + std::to_string(wl) + " cut " +
                                   std::to_string(tx_cut) + " ranges " +
                                   std::to_string(ranges.size()) + " @" +
                                   std::to_string(i);
            ASSERT_EQ(digitized[i], reference_digitized[i]) << at;
            ASSERT_EQ(cleaned[i], reference_cleaned[i]) << at;
            ASSERT_EQ(ranged[i], reference_cleaned[i]) << at;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace backfi::fd
