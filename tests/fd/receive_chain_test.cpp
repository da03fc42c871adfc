#include "fd/receive_chain.h"

#include <gtest/gtest.h>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "channel/awgn.h"
#include "channel/backscatter_link.h"
#include "dsp/math_util.h"
#include "dsp/vec_ops.h"
#include "wifi/ppdu.h"

namespace backfi::fd {
namespace {

struct chain_scenario {
  cvec tx;
  cvec rx;
  double noise_power;
};

chain_scenario make_scenario(std::uint64_t seed) {
  dsp::rng gen(seed);
  chain_scenario s;
  s.tx = wifi::random_ppdu(300, {.rate = wifi::wifi_rate::mbps24}, seed).samples;
  const channel::link_budget budget;
  const auto ch = channel::draw_backscatter_channels(budget, 2.0, gen);
  s.rx = channel::apply_channel(s.tx, ch.h_env);
  s.noise_power = ch.noise_power;
  channel::add_awgn(s.rx, s.noise_power, gen);
  return s;
}

/// run_receive_chain on a fresh scratch: the chain result plus the
/// cleaned waveform it left in the scratch.
struct chain_run : receive_chain_result {
  cvec cleaned;
};

chain_run run_chain(std::span<const cplx> tx, std::span<const cplx> rx,
                    std::size_t silent_begin, std::size_t silent_end,
                    const receive_chain_config& config) {
  receive_chain_scratch scratch;
  chain_run out{run_receive_chain(tx, rx, silent_begin, silent_end, config,
                                  &scratch),
                {}};
  out.cleaned = std::move(scratch.cleaned);
  return out;
}

TEST(ReceiveChainTest, FullChainReachesNearNoiseFloor) {
  const chain_scenario s = make_scenario(1);
  const auto result = run_chain(s.tx, s.rx, 0, 320, {});
  EXPECT_FALSE(result.adc_saturated);
  EXPECT_GT(result.analog_depth_db, 25.0);
  EXPECT_GT(result.total_depth_db, result.analog_depth_db);
  // Residual within ~3 dB of thermal (paper reports 1.7-2.3 dB residue).
  const double excess_db = dsp::to_db(result.residual_power / s.noise_power);
  EXPECT_LT(excess_db, 3.5);
  EXPECT_GE(excess_db, -1.0);
}

TEST(ReceiveChainTest, WithoutAnalogStageAdcLimitsCancellation) {
  const chain_scenario s = make_scenario(2);
  receive_chain_config no_analog;
  no_analog.enable_analog = false;
  no_analog.adc.bits = 8;  // a modest ADC makes the failure stark
  const auto crippled = run_chain(s.tx, s.rx, 0, 320, no_analog);
  const auto full = run_chain(s.tx, s.rx, 0, 320, {});
  // Quantization noise of the full-SI-scale ADC floors the residual far
  // above what the two-stage design achieves.
  EXPECT_GT(crippled.residual_power, 10.0 * full.residual_power);
}

TEST(ReceiveChainTest, DigitalStageAddsDepth) {
  const chain_scenario s = make_scenario(3);
  receive_chain_config analog_only;
  analog_only.enable_digital = false;
  const auto partial = run_chain(s.tx, s.rx, 0, 320, analog_only);
  const auto full = run_chain(s.tx, s.rx, 0, 320, {});
  EXPECT_GT(full.total_depth_db, partial.total_depth_db + 10.0);
}

TEST(ReceiveChainTest, IdealFrontEndSlightlyBetterThanAdc) {
  const chain_scenario s = make_scenario(4);
  receive_chain_config ideal;
  ideal.enable_adc = false;
  const auto with_adc = run_chain(s.tx, s.rx, 0, 320, {});
  const auto without_adc = run_chain(s.tx, s.rx, 0, 320, ideal);
  EXPECT_GE(without_adc.total_depth_db, with_adc.total_depth_db - 1.0);
}

TEST(ReceiveChainTest, CleanedBufferKeepsLength) {
  const chain_scenario s = make_scenario(5);
  const auto result = run_chain(s.tx, s.rx, 0, 320, {});
  EXPECT_EQ(result.cleaned.size(), s.rx.size());
}

TEST(ReceiveChainTest, DegenerateSilentWindowBypassesCancellation) {
  const chain_scenario s = make_scenario(6);
  // Empty, reversed, past-the-end and shorter-than-the-taps windows (3 < 6
  // analog taps, 7 < 8 digital taps) must all flag a bypass and pass the
  // input through untouched instead of adapting on garbage.
  for (const auto& [begin, end] :
       {std::pair<std::size_t, std::size_t>{100, 100},
        {320, 100},
        {0, s.rx.size() + 1},
        {100, 103},
        {100, 107}}) {
    const auto result = run_chain(s.tx, s.rx, begin, end, {});
    EXPECT_TRUE(result.cancellation_bypassed);
    EXPECT_EQ(result.analog_depth_db, 0.0);
    EXPECT_EQ(result.total_depth_db, 0.0);
    ASSERT_EQ(result.cleaned.size(), s.rx.size());
    for (std::size_t i = 0; i < s.rx.size(); ++i)
      ASSERT_EQ(result.cleaned[i], s.rx[i]);
  }
}

TEST(ReceiveChainTest, MisalignedBuffersBypassCancellation) {
  const chain_scenario s = make_scenario(7);
  const auto result = run_chain(
      std::span(s.tx).first(s.tx.size() - 5), s.rx, 0, 320, {});
  EXPECT_TRUE(result.cancellation_bypassed);
}

TEST(ReceiveChainTest, HardeningOptionsDoNotHurtACleanLink) {
  const chain_scenario s = make_scenario(8);
  receive_chain_config hardened;
  hardened.digital.widely_linear = true;
  hardened.digital.remove_dc = true;
  hardened.track_residual_gain = true;
  const auto plain = run_chain(s.tx, s.rx, 0, 320, {});
  const auto hard = run_chain(s.tx, s.rx, 0, 320, hardened);
  // Widely-linear taps, DC removal and residual tracking must be no-ops
  // (within a dB) when there is no image, offset or rotation to fix.
  EXPECT_LT(hard.residual_power, 1.3 * plain.residual_power);
}

TEST(ReceiveChainTest, FrontEndHookObservesAndMutatesTheResidual) {
  const chain_scenario s = make_scenario(9);
  // A hook that nulls everything leaves only what the digital stage and
  // the depth accounting see: the chain must run it exactly once, between
  // the analog stage and the ADC.
  std::size_t calls = 0;
  receive_chain_config cfg;
  cfg.front_end_hook = [&calls](std::span<cplx> samples) {
    ++calls;
    for (cplx& v : samples) v = {0.0, 0.0};
  };
  const auto result = run_chain(s.tx, s.rx, 0, 320, cfg);
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(dsp::mean_power(result.cleaned), 0.0);
  // The analog stage ran before the hook: its depth is still measured.
  EXPECT_GT(result.analog_depth_db, 25.0);
}


TEST(ReceiveChainTest, DirtyScratchBitIdenticalToFreshScratch) {
  const chain_scenario s = make_scenario(11);
  receive_chain_config configs[2];
  configs[1].track_residual_gain = true;
  for (const auto& cfg : configs) {
    const auto fresh = run_chain(s.tx, s.rx, 0, 320, cfg);

    // Dirty the scratch with a different packet first: results must be
    // independent of workspace history.
    receive_chain_scratch scratch;
    const chain_scenario other = make_scenario(12);
    run_receive_chain(other.tx, other.rx, 0, 320, cfg, &scratch);

    const auto ws = run_receive_chain(s.tx, s.rx, 0, 320, cfg, &scratch);
    ASSERT_EQ(scratch.cleaned.size(), fresh.cleaned.size());
    for (std::size_t i = 0; i < fresh.cleaned.size(); ++i)
      ASSERT_EQ(scratch.cleaned[i], fresh.cleaned[i]) << i;
    EXPECT_EQ(ws.analog_depth_db, fresh.analog_depth_db);
    EXPECT_EQ(ws.total_depth_db, fresh.total_depth_db);
    EXPECT_EQ(ws.residual_power, fresh.residual_power);
    EXPECT_EQ(ws.adc_saturated, fresh.adc_saturated);
    EXPECT_EQ(ws.cancellation_bypassed, fresh.cancellation_bypassed);
  }
}

TEST(ReceiveChainTest, NullScratchThrows) {
  const chain_scenario s = make_scenario(13);
  EXPECT_THROW(run_receive_chain(s.tx, s.rx, 0, 320, {}, nullptr),
               std::invalid_argument);
}

std::uint64_t fnv1a_bytes(const cvec& v) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto* bytes = reinterpret_cast<const unsigned char*>(v.data());
  for (std::size_t i = 0; i < v.size() * sizeof(cplx); ++i) {
    h ^= bytes[i];
    h *= 1099511628211ULL;
  }
  return h;
}

// The full-range chain (no roi) pinned as literals over every stage toggle
// and the hardening options: FNV-1a 64 over the cleaned waveform's bytes
// plus the exact depths, residual power and saturation flag. Any change to
// the quantize/cancel sweeps that moves a single output bit fails here.
TEST(ReceiveChainTest, FullRangeOutputsPinned) {
  struct pinned {
    std::uint64_t cleaned_fnv;
    double analog_depth_db;
    double total_depth_db;
    double residual_power;
    bool adc_saturated;
  };
  constexpr std::size_t kConfigs = 7;
  const auto make_config = [](std::size_t c) {
    receive_chain_config cfg;
    switch (c) {
      case 1:  // widely-linear + DC
      case 2:  // ... + residual-gain tracking
        cfg.digital.widely_linear = true;
        cfg.digital.remove_dc = true;
        cfg.track_residual_gain = c == 2;
        break;
      case 3:
        cfg.front_end_hook = [](std::span<cplx> v) {
          for (cplx& x : v) x *= 0.5;
        };
        break;
      case 4: cfg.enable_adc = false; break;
      case 5: cfg.enable_digital = false; break;
      case 6: cfg.enable_analog = false; break;
      default: break;
    }
    return cfg;
  };
  // Hex-float literals: exact, no decimal round trip.
  const pinned want[2][kConfigs] = {
      {{0xad75a1e137b5869bULL, 0x1.3ba8540916e1ep+5, 0x1.79d076d07f158p+6,
        0x1.f8c338421cdeap-39, false},
       {0x737a71e8c8ccfa90ULL, 0x1.3ba8540916e1ep+5, 0x1.79d14192435dep+6,
        0x1.f8ac3562121b5p-39, false},
       {0x004fa1cfe571f0dfULL, 0x1.3ba8540916e1ep+5, 0x1.79f31c8ae4e94p+6,
        0x1.f4d8669d20c76p-39, false},
       {0xf32a15f0dddcccc3ULL, 0x1.3ba8540916e1ep+5, 0x1.91e58ef5466ep+6,
        0x1.f8c338421cdeap-41, false},
       {0x76dc1666dc7944bbULL, 0x1.3ba8540916e1ep+5, 0x1.7cf478a74341bp+6,
        0x1.a547acdc53a3dp-39, false},
       {0x5c8b326f534c4276ULL, 0x1.3ba8540916e1ep+5, 0x1.3ba8993b3f70ep+5,
        0x1.30303d873fb26p-20, false},
       {0x91cf333bc29458feULL, 0x0p+0, 0x1.f283d0285b72ep+5,
        0x1.9358d52497322p-28, false}},
      {{0xc881d43c47a2410fULL, 0x1.481192353dcf9p+5, 0x1.79e2909e21348p+6,
        0x1.f9fb9c9a81be8p-39, false},
       {0x8febf2f0a66ca5b9ULL, 0x1.481192353dcf9p+5, 0x1.79e99f6b04d7bp+6,
        0x1.f92e342ed694ap-39, false},
       {0x993314ed0d3e383bULL, 0x1.481192353dcf9p+5, 0x1.7a01affe04dd7p+6,
        0x1.f6744749eda72p-39, false},
       {0x84e31fbf896b2896ULL, 0x1.481192353dcf9p+5, 0x1.91f7a8c2e88dp+6,
        0x1.f9fb9c9a81be8p-41, false},
       {0xef8ca3de500cbde9ULL, 0x1.481192353dcf9p+5, 0x1.7c8e6094b32c8p+6,
        0x1.b1de1d46067cbp-39, false},
       {0x840a5bd2125be094ULL, 0x1.481192353dcf9p+5, 0x1.481270bd83543p+5,
        0x1.ac5f33632fc3bp-21, false},
       {0xb38808e7d456bb63ULL, 0x0p+0, 0x1.f9934060ba6afp+5,
        0x1.4b50aecf9a8fbp-28, false}},
  };
  for (std::size_t si = 0; si < 2; ++si) {
    const chain_scenario s = make_scenario(si + 1);
    for (std::size_t c = 0; c < kConfigs; ++c) {
      const auto r = run_chain(s.tx, s.rx, 0, 320, make_config(c));
      const pinned& w = want[si][c];
      EXPECT_EQ(fnv1a_bytes(r.cleaned), w.cleaned_fnv) << si << "/" << c;
      EXPECT_EQ(r.analog_depth_db, w.analog_depth_db) << si << "/" << c;
      EXPECT_EQ(r.total_depth_db, w.total_depth_db) << si << "/" << c;
      EXPECT_EQ(r.residual_power, w.residual_power) << si << "/" << c;
      EXPECT_EQ(r.adc_saturated, w.adc_saturated) << si << "/" << c;
    }
  }
}

// The hardened chain (widely-linear + DC removal + residual-gain tracking)
// in the two configurations FullRangeOutputsPinned leaves out, pinned as
// literals the same way:
//  - with a front-end hook, the fault campaign's recovery-arm
//    configuration: the hook keeps every sweep full-range;
//  - with a roi (no hook) whose union with the silent window is two
//    disjoint ranges, so the gain-application pass writes narrower ranges
//    than the sweeps. Only the readable samples (silent window and roi)
//    are hashed.
TEST(ReceiveChainTest, HardenedOutputsPinned) {
  struct pinned {
    std::uint64_t cleaned_fnv;
    double total_depth_db;
    double residual_power;
    bool adc_saturated;
  };
  constexpr std::size_t kConfigs = 2;
  constexpr dsp::sample_range kRoi{900, 2101};
  const auto make_config = [&](std::size_t c) {
    receive_chain_config cfg;
    cfg.digital.widely_linear = true;
    cfg.digital.remove_dc = true;
    cfg.track_residual_gain = true;
    if (c == 0) {
      // A front end in miniature: slow LO rotation, an IQ image and a DC
      // offset at a tenth of the residual's rms.
      cfg.front_end_hook = [](std::span<cplx> v) {
        const double rms = std::sqrt(dsp::mean_power(v));
        const cplx image{0.05, 0.02};
        const cplx dc{0.1 * rms, -0.07 * rms};
        for (std::size_t i = 0; i < v.size(); ++i) {
          const cplx rot = std::polar(1.0, 3e-4 * static_cast<double>(i));
          v[i] = v[i] * rot + image * std::conj(v[i]) + dc;
        }
      };
    } else {
      cfg.roi = kRoi;
    }
    return cfg;
  };
  const auto readable_fnv = [&](const cvec& cleaned, std::size_t c) {
    if (c == 0) return fnv1a_bytes(cleaned);
    cvec readable(cleaned.begin(), cleaned.begin() + 320);
    readable.insert(readable.end(), cleaned.begin() + kRoi.begin,
                    cleaned.begin() + kRoi.end);
    return fnv1a_bytes(readable);
  };
  const pinned want[2][kConfigs] = {
      {{0x8a6a668b90fb63c2ULL, 0x1.1d5787af6cd14p+6, 0x1.9441b2b066d1ap-31,
        false},
       {0x0c2b3d10dfac2b26ULL, 0x1.79f31c8ae4e94p+6, 0x1.f4d8669d20c76p-39,
        false}},
      {{0x14b9dfd96de9a64bULL, 0x1.3290b8191231fp+6, 0x1.dfad393877de3p-33,
        false},
       {0x6bedb0e5b61476b2ULL, 0x1.7a01affe04dd7p+6, 0x1.f6744749eda72p-39,
        false}},
  };
  for (std::size_t si = 0; si < 2; ++si) {
    const chain_scenario s = make_scenario(si + 1);
    for (std::size_t c = 0; c < kConfigs; ++c) {
      const auto r = run_chain(s.tx, s.rx, 0, 320, make_config(c));
      const pinned& w = want[si][c];
      EXPECT_EQ(readable_fnv(r.cleaned, c), w.cleaned_fnv) << si << "/" << c;
      EXPECT_EQ(r.total_depth_db, w.total_depth_db) << si << "/" << c;
      EXPECT_EQ(r.residual_power, w.residual_power) << si << "/" << c;
      EXPECT_EQ(r.adc_saturated, w.adc_saturated) << si << "/" << c;
    }
  }
}

// The adc_saturated flag, taken from the analog stage's fused peak, against
// saturation_scan_range over the whole analog residual at the AGC's full
// scale. The roi is set, so the quantize sweeps skip most of the capture.
// Cases: no clipping; a clipping sample only outside the roi (before and
// after it); only inside it; NaN (energy unknown: the chain scans); an
// infinite or overflowing sample (infinite full scale: nothing clips).
TEST(ReceiveChainTest, FusedSaturationFlagMatchesFullScan) {
  const chain_scenario s = make_scenario(4);
  const std::size_t n = s.rx.size();
  const dsp::sample_range roi{n / 2, n / 2 + 400};
  const double spike = 1e3 * std::sqrt(dsp::mean_power(s.rx));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct injection {
    std::size_t at;
    cplx value;
    bool clips;
  };
  const injection cases[] = {
      {0, s.rx[0], false},              // unchanged capture
      {400, cplx{spike, 0.0}, true},    // between the silent window and roi
      {n - 10, cplx{0.0, -spike}, true},  // past the roi
      {n / 2 + 100, cplx{-spike, spike}, true},  // inside the roi
      {400, cplx{nan, 0.0}, false},
      {n / 2 + 100, cplx{0.0, nan}, false},
      {n - 10, cplx{inf, 0.0}, false},
      {400, cplx{-inf, 1.0}, false},
      {n / 2 + 100, cplx{1e200, 0.0}, false},
  };
  for (std::size_t c = 0; c < std::size(cases); ++c) {
    cvec rx = s.rx;
    rx[cases[c].at] = cases[c].value;
    for (const bool with_roi : {true, false}) {
      receive_chain_config cfg;
      if (with_roi) cfg.roi = roi;
      receive_chain_scratch scratch;
      const auto r = run_receive_chain(s.tx, rx, 0, 320, cfg, &scratch);
      adc_config adc = cfg.adc;
      adc.full_scale = agc_full_scale(scratch.after_analog,
                                      receive_chain_config::agc_headroom);
      unsigned scanned = 0;
      saturation_scan_range(scratch.after_analog.data(), 0, n, adc, scanned);
      EXPECT_EQ(r.adc_saturated, scanned != 0) << c << " roi " << with_roi;
      EXPECT_EQ(r.adc_saturated, cases[c].clips) << c << " roi " << with_roi;
    }
  }
}

/// Every field of two chain results and their cleaned waveforms, bit for
/// bit.
void expect_same_run(const receive_chain_result& got, const cvec& got_cleaned,
                     const chain_run& want, const std::string& what) {
  EXPECT_EQ(got.analog_depth_db, want.analog_depth_db) << what;
  EXPECT_EQ(got.total_depth_db, want.total_depth_db) << what;
  EXPECT_EQ(got.residual_power, want.residual_power) << what;
  EXPECT_EQ(got.adc_saturated, want.adc_saturated) << what;
  EXPECT_EQ(got.cancellation_bypassed, want.cancellation_bypassed) << what;
  EXPECT_EQ(got.roi_samples_processed, want.roi_samples_processed) << what;
  EXPECT_EQ(got.roi_samples_skipped, want.roi_samples_skipped) << what;
  EXPECT_EQ(fnv1a_bytes(got_cleaned), fnv1a_bytes(want.cleaned)) << what;
}

// The analog stage run ahead in random slices as the capture arrives
// (advance_receive_chain), then finished by run_receive_chain, gives the
// one-call result: every field and every cleaned byte. Slices end before,
// at and past silent_end, and past the capture. Configurations: default,
// hardened (widely-linear + DC + residual-gain tracking), default with a
// roi, analog stage off, and bypassed windows (reversed, too short for the
// taps).
TEST(ReceiveChainTest, AdvancedAnalogStageMatchesOneCall) {
  const chain_scenario s = make_scenario(21);
  const std::size_t n = s.rx.size();
  struct chain_case {
    const char* name;
    receive_chain_config config;
    std::size_t silent_begin, silent_end;
  };
  std::vector<chain_case> cases(6);
  cases[0] = {"default", {}, 0, 320};
  cases[1] = {"hardened", {}, 40, 320};
  cases[1].config.digital.widely_linear = true;
  cases[1].config.digital.remove_dc = true;
  cases[1].config.track_residual_gain = true;
  cases[2] = {"roi", {}, 0, 320};
  cases[2].config.roi = {700, 1900};
  cases[3] = {"analog_off", {}, 0, 320};
  cases[3].config.enable_analog = false;
  cases[4] = {"reversed_window", {}, 320, 100};
  cases[5] = {"short_window", {}, 100, 103};
  dsp::rng gen(22);
  for (const chain_case& c : cases) {
    const chain_run want =
        run_chain(s.tx, s.rx, c.silent_begin, c.silent_end, c.config);
    receive_chain_scratch scratch;
    for (int trial = 0; trial < 8; ++trial) {
      std::size_t upto = 0;
      while (upto < n + 50) {
        upto += trial == 0 ? 1 + gen.uniform_int(4)
                           : 1 + gen.uniform_int(n / 3);
        if (trial == 1 && upto < c.silent_end) upto = c.silent_end;
        advance_receive_chain(s.tx, s.rx, c.silent_begin, c.silent_end,
                              upto, c.config, &scratch);
        if (trial == 2) break;  // one slice, then finish
      }
      const receive_chain_result got = run_receive_chain(
          s.tx, s.rx, c.silent_begin, c.silent_end, c.config, &scratch);
      expect_same_run(got, scratch.cleaned, want,
                      std::string(c.name) + " trial " + std::to_string(trial));
      EXPECT_EQ(scratch.cursor.tx, nullptr) << c.name << ": cursor not cleared";
    }
  }
}

// A cursor left by an unfinished capture is restarted, not continued, when
// the next call is for another capture or for the same capture with another
// silent window.
TEST(ReceiveChainTest, CursorFromAnotherCaptureIsIgnored) {
  const chain_scenario a = make_scenario(23);
  const chain_scenario b = make_scenario(24);
  const receive_chain_config cfg;
  const std::size_t n = a.rx.size();
  const auto left_over = [&](receive_chain_scratch& scratch) {
    advance_receive_chain(a.tx, a.rx, 0, 320, n / 2, cfg, &scratch);
    ASSERT_EQ(scratch.cursor.done, n / 2);
  };
  {
    receive_chain_scratch scratch;
    left_over(scratch);
    const auto got = run_receive_chain(b.tx, b.rx, 0, 320, cfg, &scratch);
    expect_same_run(got, scratch.cleaned, run_chain(b.tx, b.rx, 0, 320, cfg),
                    "another capture");
  }
  {
    receive_chain_scratch scratch;
    left_over(scratch);
    const auto got = run_receive_chain(a.tx, a.rx, 0, 400, cfg, &scratch);
    expect_same_run(got, scratch.cleaned, run_chain(a.tx, a.rx, 0, 400, cfg),
                    "another window");
  }
}

TEST(ReceiveChainValidate, FirstViolationIsTypedAndNamed) {
  EXPECT_EQ(receive_chain_config{}.validate(), config_error::none);
  {
    receive_chain_config cfg;
    cfg.analog.n_taps = 0;
    EXPECT_EQ(cfg.validate(), config_error::zero_analog_taps);
  }
  {
    receive_chain_config cfg;
    cfg.digital.n_taps = 0;
    EXPECT_EQ(cfg.validate(), config_error::zero_digital_taps);
  }
  {
    receive_chain_config cfg;
    cfg.adc.bits = 0;
    EXPECT_EQ(cfg.validate(), config_error::bad_adc_bits);
    cfg.adc.bits = 48;
    EXPECT_EQ(cfg.validate(), config_error::bad_adc_bits);
  }
  EXPECT_STREQ(to_string(config_error::bad_adc_bits), "bad_adc_bits");
  EXPECT_STREQ(to_string(config_error::none), "none");
}

TEST(ReceiveChainValidate, EntryPointThrowsWithCallSiteAndReason) {
  const chain_scenario s = make_scenario(3);
  receive_chain_config cfg;
  cfg.adc.bits = 0;
  receive_chain_scratch scratch;
  try {
    (void)run_receive_chain(s.tx, s.rx, 0, 320, cfg, &scratch);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("run_receive_chain"), std::string::npos) << what;
    EXPECT_NE(what.find("bad_adc_bits"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace backfi::fd
