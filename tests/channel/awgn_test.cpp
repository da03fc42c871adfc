#include "channel/awgn.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "dsp/math_util.h"
#include "dsp/replay_cache.h"
#include "dsp/vec_ops.h"

namespace backfi::channel {
namespace {

TEST(AwgnTest, AddedNoisePowerMatches) {
  dsp::rng gen(1);
  cvec x(100000, cplx{0.0, 0.0});
  add_awgn(x, 0.04, gen);
  EXPECT_NEAR(dsp::mean_power(x), 0.04, 0.002);
}

TEST(AwgnTest, ZeroPowerIsNoOp) {
  dsp::rng gen(2);
  cvec x(100, cplx{1.0, 1.0});
  add_awgn(x, 0.0, gen);
  for (const auto& v : x) EXPECT_EQ(v, cplx(1.0, 1.0));
}

// Pins the stream-position contract from awgn.h: noise_power <= 0 returns
// without consuming a single draw, so later draws from the generator are
// exactly what they would be had add_awgn never been called. Silence-gap
// simulation relies on this to keep trial streams aligned.
TEST(AwgnTest, ZeroOrNegativePowerLeavesStreamUntouched) {
  dsp::rng touched(7);
  dsp::rng untouched(7);
  cvec x(64, cplx{1.0, -1.0});
  add_awgn(x, 0.0, touched);
  add_awgn(x, -1.0, touched);
  cvec empty;
  add_awgn(empty, 0.25, touched);  // empty span: also zero draws
  EXPECT_TRUE(touched.save() == untouched.save());
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(touched.next_u64(), untouched.next_u64());
  }
  EXPECT_EQ(touched.gaussian(), untouched.gaussian());
}

// A replay-cache hit must be bitwise identical to the miss that populated
// it: same added samples, same generator end state. The key covers the
// full RNG state, so a seed only this test uses misses on its first call.
// The admission gate is process-wide: an open gate records that first
// call, a closed one refuses it and records the second sighting. Either
// way the third call is a hit, and all three must agree bitwise.
TEST(AwgnTest, CacheHitMatchesMissBitwise) {
  const bool cached = dsp::cache_budget_bytes("BACKFI_NOISE_CACHE_MB", 64) > 0;
  dsp::rng gens[3] = {dsp::rng(0xA31Fu), dsp::rng(0xA31Fu), dsp::rng(0xA31Fu)};
  cvec out[3];
  noise_cache_stats before;
  for (int call = 0; call < 3; ++call) {
    out[call].assign(257, cplx{0.5, -0.25});
    if (call == 2) before = awgn_cache_stats();
    add_awgn(out[call], 0.04, gens[call]);
  }
  const noise_cache_stats after = awgn_cache_stats();
  for (int call = 1; call < 3; ++call) {
    for (std::size_t i = 0; i < out[0].size(); ++i) {
      EXPECT_EQ(out[0][i].real(), out[call][i].real())
          << "call " << call << " sample " << i;
      EXPECT_EQ(out[0][i].imag(), out[call][i].imag())
          << "call " << call << " sample " << i;
    }
    EXPECT_TRUE(gens[0].save() == gens[call].save()) << "call " << call;
  }
  const double next = gens[0].uniform();
  for (int call = 1; call < 3; ++call)
    EXPECT_EQ(gens[call].uniform(), next) << "call " << call;
  if (cached) {
    EXPECT_EQ(after.hits, before.hits + 1);
    EXPECT_EQ(after.misses, before.misses);
  } else {
    // Cache disabled (BACKFI_NOISE_CACHE_MB=0): every call took the
    // generate path, which the comparisons above still pin.
    EXPECT_EQ(after.hits, 0u);
    EXPECT_EQ(after.entries, 0u);
  }
}

// The noise amplitude is applied outside the cached unit-power samples, so
// a hit at a different noise power is still bitwise identical to scalar
// synthesis at that power: x[i] += sqrt(p) * gen.complex_gaussian().
TEST(AwgnTest, CacheHitAtDifferentPowerMatchesScalarSynthesis) {
  dsp::rng warm(0xB442u);
  cvec x(123, cplx{0.0, 0.0});
  add_awgn(x, 0.04, warm);  // populate (or just exercise) the cache key

  dsp::rng gen(0xB442u), ref_gen(0xB442u);
  cvec y(123, cplx{1.0, 2.0});
  cvec ref = y;
  add_awgn(y, 0.09, gen);
  const double amp = std::sqrt(0.09);
  for (auto& v : ref) v += amp * ref_gen.complex_gaussian();
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_EQ(y[i].real(), ref[i].real()) << "sample " << i;
    EXPECT_EQ(y[i].imag(), ref[i].imag()) << "sample " << i;
  }
  EXPECT_TRUE(gen.save() == ref_gen.save());
}

// The miss path draws, records and adds in one pass. Its output must be
// the scalar `x += amp * complex_gaussian()` loop, and the recorded entry
// must replay that loop at any other amplitude — across block boundaries
// (256 pairs) and at the fig08 mid-point capture length. Each length runs
// three calls at three powers: the entry is recorded by the first call
// (open admission gate) or by the second (closed gate, second sighting),
// so the third call replays it at a power it was not recorded at.
TEST(AwgnTest, MissRecordMatchesScalarAndReplays) {
  const bool cached = dsp::cache_budget_bytes("BACKFI_NOISE_CACHE_MB", 64) > 0;
  for (const std::size_t n : {std::size_t{1}, std::size_t{255},
                              std::size_t{256}, std::size_t{257},
                              std::size_t{27440}}) {
    const std::uint64_t seed = 0xC01D0000u + n;
    const auto scalar_loop = [&](cvec& v, double power) {
      dsp::rng ref(seed);
      const double amp = std::sqrt(power);
      for (cplx& s : v) s += amp * ref.complex_gaussian();
      return ref.save();
    };
    cvec init(n);
    for (std::size_t i = 0; i < n; ++i)
      init[i] = cplx{0.001 * static_cast<double>(i), -0.5};

    noise_cache_stats before;
    const double powers[3] = {0.04, 0.3, 0.09};
    for (int call = 0; call < 3; ++call) {
      if (call == 2) before = awgn_cache_stats();
      dsp::rng gen(seed);
      cvec got = init, want = init;
      add_awgn(got, powers[call], gen);
      const auto want_end = scalar_loop(want, powers[call]);
      ASSERT_EQ(0, std::memcmp(got.data(), want.data(), n * sizeof(cplx)))
          << "call " << call << " n=" << n;
      EXPECT_EQ(gen.save(), want_end) << "call " << call << " n=" << n;
    }

    const auto after = awgn_cache_stats();
    if (cached) {
      EXPECT_EQ(after.misses, before.misses) << "n=" << n;
      EXPECT_EQ(after.hits, before.hits + 1) << "n=" << n;
    }
  }
}

TEST(AwgnTest, NoiseIsAdditive) {
  dsp::rng gen_a(3), gen_b(3);
  cvec zeros(64, cplx{0.0, 0.0});
  cvec signal(64, cplx{2.0, -1.0});
  add_awgn(zeros, 0.1, gen_a);
  add_awgn(signal, 0.1, gen_b);
  for (std::size_t i = 0; i < 64; ++i)
    EXPECT_NEAR(std::abs((signal[i] - cplx(2.0, -1.0)) - zeros[i]), 0.0, 1e-12);
}

TEST(AwgnTest, NormalizedNoisePowerFor20dBmTransmitter) {
  // Noise floor -95 dBm vs 20 dBm carrier -> -115 dB relative.
  const double p = normalized_noise_power(20.0, 20e6, 6.0);
  EXPECT_NEAR(dsp::to_db(p), -115.0, 0.3);
}

TEST(AwgnTest, NormalizedNoiseScalesWithTxPower) {
  const double p20 = normalized_noise_power(20.0, 20e6, 6.0);
  const double p30 = normalized_noise_power(30.0, 20e6, 6.0);
  EXPECT_NEAR(p20 / p30, 10.0, 1e-9);
}

}  // namespace
}  // namespace backfi::channel
