#include "dsp/fir.h"

#include <gtest/gtest.h>
#include <cstdint>

#include "dsp/rng.h"
#include "dsp/vec_ops.h"

namespace backfi::dsp {
namespace {

TEST(FirTest, ConvolveWithDeltaIsIdentity) {
  const cvec x = {{1.0, 2.0}, {3.0, -1.0}, {0.5, 0.5}};
  const cvec delta = {cplx{1.0, 0.0}};
  const cvec y = convolve(x, delta);
  ASSERT_EQ(y.size(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(std::abs(y[i] - x[i]), 0.0, 1e-15);
}

TEST(FirTest, ConvolveWithShiftedDeltaDelays) {
  const cvec x = {{1.0, 0.0}, {2.0, 0.0}};
  const cvec h = {{0.0, 0.0}, {0.0, 0.0}, {1.0, 0.0}};
  const cvec y = convolve(x, h);
  ASSERT_EQ(y.size(), 4u);
  EXPECT_NEAR(std::abs(y[0]), 0.0, 1e-15);
  EXPECT_NEAR(std::abs(y[1]), 0.0, 1e-15);
  EXPECT_NEAR(std::abs(y[2] - cplx(1.0, 0.0)), 0.0, 1e-15);
  EXPECT_NEAR(std::abs(y[3] - cplx(2.0, 0.0)), 0.0, 1e-15);
}

TEST(FirTest, ConvolutionIsCommutative) {
  rng gen(8);
  cvec x(20), h(5);
  for (auto& v : x) v = gen.complex_gaussian();
  for (auto& v : h) v = gen.complex_gaussian();
  const cvec xy = convolve(x, h);
  const cvec yx = convolve(h, x);
  ASSERT_EQ(xy.size(), yx.size());
  for (std::size_t i = 0; i < xy.size(); ++i)
    EXPECT_NEAR(std::abs(xy[i] - yx[i]), 0.0, 1e-12);
}

TEST(FirTest, ConvolveEmptyReturnsEmpty) {
  const cvec x;
  const cvec h = {cplx{1.0, 0.0}};
  EXPECT_TRUE(convolve(x, h).empty());
  EXPECT_TRUE(convolve(h, x).empty());
}

TEST(FirTest, ConvolveSameTruncatesToInputLength) {
  rng gen(9);
  cvec x(50), h(7);
  for (auto& v : x) v = gen.complex_gaussian();
  for (auto& v : h) v = gen.complex_gaussian();
  const cvec same = convolve_same(x, h);
  const cvec full = convolve(x, h);
  ASSERT_EQ(same.size(), x.size());
  for (std::size_t i = 0; i < same.size(); ++i)
    EXPECT_NEAR(std::abs(same[i] - full[i]), 0.0, 1e-15);
}

TEST(FirTest, StreamingMatchesBatchAcrossBlockBoundaries) {
  rng gen(10);
  cvec x(100), taps(9);
  for (auto& v : x) v = gen.complex_gaussian();
  for (auto& v : taps) v = gen.complex_gaussian();

  const cvec batch = convolve_same(x, taps);

  fir_filter filt(taps);
  cvec streamed;
  // Deliberately irregular block sizes to stress the history handling.
  const std::size_t blocks[] = {1, 3, 13, 40, 43};
  std::size_t pos = 0;
  for (std::size_t len : blocks) {
    const cvec out = filt.process(std::span(x).subspan(pos, len));
    streamed.insert(streamed.end(), out.begin(), out.end());
    pos += len;
  }
  ASSERT_EQ(streamed.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i)
    EXPECT_NEAR(std::abs(streamed[i] - batch[i]), 0.0, 1e-12) << "at index " << i;
}

TEST(FirTest, OverlapSaveMatchesDirectRandomized) {
  rng seeds(77);
  // Mixed sizes around the dispatch threshold, including non-power-of-two
  // kernels and a signal shorter than one FFT block.
  const struct { std::size_t nx, nh; } cases[] = {
      {1000, 97}, {1 << 12, 256}, {513, 129}, {200, 200}, {96, 4096}};
  for (const auto& c : cases) {
    rng gen(seeds.next_u64());
    cvec x(c.nx), h(c.nh);
    for (auto& v : x) v = gen.complex_gaussian();
    for (auto& v : h) v = gen.complex_gaussian();
    const cvec direct = convolve_direct(x, h);
    const cvec fast = convolve_overlap_save(x, h);
    ASSERT_EQ(fast.size(), direct.size());
    double scale = 0.0;
    for (const cplx& v : direct) scale = std::max(scale, std::abs(v));
    for (std::size_t i = 0; i < direct.size(); ++i)
      EXPECT_NEAR(std::abs(fast[i] - direct[i]) / scale, 0.0, 1e-9)
          << "nx=" << c.nx << " nh=" << c.nh << " i=" << i;
  }
}

TEST(FirTest, ConvolveDispatchesLongKernelsToOverlapSave) {
  rng gen(78);
  cvec x(2048), h(fft_convolve_min_taps);
  for (auto& v : x) v = gen.complex_gaussian();
  for (auto& v : h) v = gen.complex_gaussian();
  // At the threshold, convolve must return exactly the overlap-save result.
  const cvec dispatched = convolve(x, h);
  const cvec fast = convolve_overlap_save(x, h);
  ASSERT_EQ(dispatched.size(), fast.size());
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_EQ(dispatched[i].real(), fast[i].real());
    EXPECT_EQ(dispatched[i].imag(), fast[i].imag());
  }
}

TEST(FirTest, ConvolveShortKernelsStayBitIdenticalToDirect) {
  rng gen(79);
  cvec x(512), h(fft_convolve_min_taps - 1);
  for (auto& v : x) v = gen.complex_gaussian();
  for (auto& v : h) v = gen.complex_gaussian();
  const cvec dispatched = convolve(x, h);
  const cvec direct = convolve_direct(x, h);
  ASSERT_EQ(dispatched.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(dispatched[i].real(), direct[i].real());
    EXPECT_EQ(dispatched[i].imag(), direct[i].imag());
  }
}

TEST(FirTest, ResetClearsHistory) {
  const cvec taps = {{1.0, 0.0}, {1.0, 0.0}};
  fir_filter filt(taps);
  const cvec block = {{1.0, 0.0}};
  (void)filt.process(block);
  filt.reset();
  const cvec out = filt.process(block);
  // Without reset the first output would be 1 + previous(1) = 2.
  EXPECT_NEAR(std::abs(out[0] - cplx(1.0, 0.0)), 0.0, 1e-15);
}


cvec window_vec(std::size_t n, std::uint64_t seed) {
  rng gen(seed);
  cvec v(n);
  for (auto& s : v) s = gen.complex_gaussian();
  return v;
}

TEST(FirTest, ConvolveSameRangeBitIdenticalInsideWindowZeroOutside) {
  const cvec x = window_vec(300, 101);
  const cvec h = window_vec(5, 102);
  const cvec full = convolve_same(x, h);
  const std::size_t windows[][2] = {{0, 300},   {0, 0},     {10, 11},
                                    {37, 123},  {250, 300}, {290, 1000},
                                    {300, 300}, {500, 600}};
  for (const auto& w : windows) {
    const cvec ranged = convolve_same_range(x, h, w[0], w[1]);
    ASSERT_EQ(ranged.size(), x.size());
    const std::size_t hi = w[1] < x.size() ? w[1] : x.size();
    const std::size_t lo = w[0] < hi ? w[0] : hi;
    for (std::size_t i = 0; i < ranged.size(); ++i) {
      const cplx want = (i >= lo && i < hi) ? full[i] : cplx{0.0, 0.0};
      ASSERT_EQ(ranged[i], want)
          << "window [" << w[0] << ", " << w[1] << ") sample " << i;
    }
  }
}

TEST(FirTest, ConvolveSameRangeAllZeroTapsGiveZeroWindow) {
  const cvec x = window_vec(64, 103);
  const cvec h(4, cplx{0.0, 0.0});
  const cvec ranged = convolve_same_range(x, h, 5, 20);
  for (const auto& v : ranged) ASSERT_EQ(v, cplx(0.0, 0.0));
}

TEST(FirTest, ConvolveSameRangeMatchesFftRegime) {
  const cvec x = window_vec(512, 104);
  const cvec h = window_vec(fft_convolve_min_taps + 7, 105);
  const cvec full = convolve_same(x, h);
  const cvec ranged = convolve_same_range(x, h, 100, 200);
  for (std::size_t i = 100; i < 200; ++i) ASSERT_EQ(ranged[i], full[i]) << i;
}

TEST(FirTest, ConvolveSameRangeIntoReusesWarmBuffer) {
  const cvec x = window_vec(256, 106);
  const cvec h = window_vec(6, 107);
  const cvec full = convolve_same(x, h);
  workspace_stats stats;
  cvec out;
  convolve_same_range_into(x, h, 30, 90, out, &stats);
  ASSERT_EQ(out.size(), x.size());
  for (std::size_t i = 30; i < 90; ++i) ASSERT_EQ(out[i], full[i]) << i;
  EXPECT_GT(stats.bytes_allocated, 0u);
  const std::uint64_t allocated_after_first = stats.bytes_allocated;
  for (int rep = 0; rep < 3; ++rep) {
    convolve_same_range_into(x, h, 30, 90, out, &stats);
    for (std::size_t i = 30; i < 90; ++i) ASSERT_EQ(out[i], full[i]) << i;
  }
  EXPECT_EQ(stats.bytes_allocated, allocated_after_first);
  EXPECT_GT(stats.bytes_reused, 0u);
}

TEST(FirTest, ConvolveSameIntoMatchesConvolveSame) {
  const cvec x = window_vec(200, 108);
  const cvec h = window_vec(7, 109);
  const cvec full = convolve_same(x, h);
  cvec out(17, cplx{3.0, -4.0});  // dirty and wrongly sized
  convolve_same_into(x, h, out);
  ASSERT_EQ(out.size(), full.size());
  for (std::size_t i = 0; i < full.size(); ++i) ASSERT_EQ(out[i], full[i]) << i;
}

TEST(FirTest, ConvolveSameSubtractIntoMatchesMaterializedSubtract) {
  // Direct form at every kernel length, FFT-length channels included.
  for (const std::size_t taps : {std::size_t{6}, fft_convolve_min_taps + 3}) {
    const cvec x = window_vec(400, 110 + taps);
    const cvec rx = window_vec(420, 111 + taps);  // longer rx: plain tail copy
    const cvec h = window_vec(taps, 112 + taps);
    const cvec conv = convolve_direct(x, h);
    cvec out;
    convolve_same_subtract_into(rx, x, h, out);
    ASSERT_EQ(out.size(), rx.size());
    for (std::size_t i = 0; i < rx.size(); ++i) {
      const cplx want = i < x.size() ? rx[i] - conv[i] : rx[i];
      ASSERT_EQ(out[i], want) << "taps " << taps << " sample " << i;
    }
  }
}

TEST(FirTest, ConvolveSameSubtractEnergyMatchesSeparatePasses) {
  // The fused energy accumulation must be bit-identical to running
  // dsp::energy over the output afterwards — the receive chain's AGC full
  // scale (and so every digitized bit downstream) hangs off these bits.
  for (const std::size_t taps :
       {std::size_t{1}, std::size_t{6}, std::size_t{8}, std::size_t{15},
        fft_convolve_min_taps + 3}) {
    for (const std::size_t nx : {std::size_t{5}, std::size_t{37},
                                 std::size_t{400}, std::size_t{1033}}) {
      const cvec x = window_vec(nx, 150 + taps + nx);
      const cvec rx = window_vec(nx + 20, 151 + taps + nx);  // plain tail
      const cvec h = window_vec(taps, 152 + taps + nx);
      cvec reference;
      convolve_same_subtract_into(rx, x, h, reference);
      cvec out;
      const double fused = convolve_same_subtract_energy_into(rx, x, h, out);
      ASSERT_EQ(out.size(), reference.size());
      for (std::size_t i = 0; i < reference.size(); ++i)
        ASSERT_EQ(out[i], reference[i]) << taps << "x" << nx << " @" << i;
      ASSERT_EQ(fused, energy(out)) << taps << "x" << nx;
    }
  }
  // Degenerate operands follow convolve_same_subtract_into's copy path.
  const cvec rx = window_vec(64, 153);
  cvec out;
  EXPECT_EQ(convolve_same_subtract_energy_into(rx, {}, {}, out), energy(rx));
  ASSERT_EQ(out.size(), rx.size());
  for (std::size_t i = 0; i < rx.size(); ++i) ASSERT_EQ(out[i], rx[i]);
}

}  // namespace
}  // namespace backfi::dsp
