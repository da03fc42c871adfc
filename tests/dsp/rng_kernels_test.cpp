// Equivalence suite for the batched rng draw kernels (rng_kernels.cpp).
//
// Every block method must consume the xoshiro256++ stream exactly like
// the equivalent scalar loop and produce bitwise-identical values —
// including Box-Muller spare carry across calls, the u1 > 0 rejection,
// odd lengths, unaligned sub-spans, the reordered sincos pass, and fork()
// stream positions. The pinned trial literals in sim/workspace_test.cpp
// ride on this.
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <vector>

#include "dsp/rng.h"

namespace backfi::dsp {
namespace {

void expect_same_state(rng& a, rng& b) {
  // Draw order after the compared region must also agree: equal snapshots
  // mean equal streams forever.
  EXPECT_EQ(a.save(), b.save());
  EXPECT_EQ(a.next_u64(), b.next_u64());
  EXPECT_EQ(a.gaussian(), b.gaussian());
}

TEST(RngKernelsTest, FillGaussianBitwiseAtOddLengths) {
  // Odd/even lengths, block-boundary straddles (the kernel stages 256
  // pairs = 512 values per block), and tiny spans.
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{511},
        std::size_t{512}, std::size_t{513}, std::size_t{1025}}) {
    rng scalar(101), batch(101);
    std::vector<double> want(n), got(n);
    for (auto& w : want) w = scalar.gaussian();
    batch.fill_gaussian(got);
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(want[i], got[i]) << "n=" << n << " i=" << i;
    expect_same_state(scalar, batch);
  }
}

TEST(RngKernelsTest, FillGaussianCarriesSpareAcrossCalls) {
  // An odd-length fill leaves a spare parked; the next fill must emit it
  // first, exactly like back-to-back scalar gaussian() calls do.
  rng scalar(55), batch(55);
  std::vector<double> want(7 + 4 + 9), got_a(7), got_b(4), got_c(9);
  for (auto& w : want) w = scalar.gaussian();
  batch.fill_gaussian(got_a);
  batch.fill_gaussian(got_b);
  batch.fill_gaussian(got_c);
  std::size_t k = 0;
  for (const double g : got_a) ASSERT_EQ(want[k++], g);
  for (const double g : got_b) ASSERT_EQ(want[k++], g);
  for (const double g : got_c) ASSERT_EQ(want[k++], g);
  expect_same_state(scalar, batch);
}

TEST(RngKernelsTest, FillGaussianSpareInteroperatesWithScalarCalls) {
  // Mixing scalar draws and batch fills on one generator must behave as
  // one continuous scalar stream.
  rng scalar(91), mixed(91);
  std::vector<double> want(1 + 6 + 1 + 5);
  for (auto& w : want) w = scalar.gaussian();
  std::size_t k = 0;
  ASSERT_EQ(want[k++], mixed.gaussian());  // parks a spare
  std::vector<double> got(6);
  mixed.fill_gaussian(got);  // must emit the spare first
  for (const double g : got) ASSERT_EQ(want[k++], g);
  ASSERT_EQ(want[k++], mixed.gaussian());
  got.resize(5);
  mixed.fill_gaussian(got);
  for (const double g : got) ASSERT_EQ(want[k++], g);
  expect_same_state(scalar, mixed);
}

TEST(RngKernelsTest, FillGaussianMatchesScalarAcrossManyBlocks) {
  // The sincos pass runs in value-bucket order inside each 256-pair
  // block; over many blocks, seeds and block-straddling lengths the
  // output must still be the scalar stream, bit for bit.
  constexpr std::size_t kLengths[] = {1, 511, 512, 513, 54881};
  constexpr int kRounds = 3;
  std::size_t pairs = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    for (const bool spare_in : {false, true}) {
      rng scalar(seed * 0x51ed27u), batch(seed * 0x51ed27u);
      if (spare_in) {
        ASSERT_EQ(scalar.gaussian(), batch.gaussian());  // parks a spare
      }
      for (int round = 0; round < kRounds; ++round) {
        for (const std::size_t n : kLengths) {
          std::vector<double> want(n), got(n);
          for (double& w : want) w = scalar.gaussian();
          batch.fill_gaussian(got);
          ASSERT_EQ(0, std::memcmp(want.data(), got.data(),
                                   n * sizeof(double)))
              << "seed=" << seed << " spare_in=" << spare_in << " n=" << n;
          pairs += n / 2;
        }
      }
      ASSERT_EQ(scalar.save(), batch.save()) << "seed=" << seed;
    }
  }
  EXPECT_GE(pairs, std::size_t{1} << 20);
}

// The recording add's `record` holds exactly the complex_gaussian()
// values a scalar loop draws (the AWGN replay cache stores it), and its
// sum equals the scalar `v += amp * complex_gaussian()` loop.
TEST(RngKernelsTest, FillComplexGaussianBitwise) {
  for (const std::size_t n : {std::size_t{1}, std::size_t{5}, std::size_t{255},
                              std::size_t{256}, std::size_t{257},
                              std::size_t{1000}}) {
    const double amp = 0.125;
    rng scalar(2026), batch(2026);
    std::vector<cplx> want_z(n), want_sum(n, cplx{1.0, -1.0});
    for (std::size_t i = 0; i < n; ++i) {
      want_z[i] = scalar.complex_gaussian();
      want_sum[i] += amp * want_z[i];
    }
    std::vector<cplx> sum(n, cplx{1.0, -1.0});
    std::vector<double> record(2 * n);
    batch.add_scaled_complex_gaussian(sum, amp, record);
    ASSERT_EQ(0, std::memcmp(want_z.data(), record.data(), n * sizeof(cplx)))
        << "n=" << n;
    ASSERT_EQ(0, std::memcmp(want_sum.data(), sum.data(), n * sizeof(cplx)))
        << "n=" << n;
    expect_same_state(scalar, batch);
  }
}

TEST(RngKernelsTest, FillComplexGaussianUnalignedSubspan) {
  // Add into and record into misaligned offsets of larger buffers (the
  // record starts on an odd double, so no complex is 16-byte aligned):
  // values and the untouched surroundings must both be exact.
  constexpr double kFill = -7.0;
  rng scalar(33), batch(33);
  std::vector<cplx> buf(64, cplx{-1.0, -2.0});
  std::vector<double> rec_buf(128, kFill);
  const std::size_t off = 3, rec_off = 5, n = 37;
  const double amp = 0.5;
  std::vector<cplx> want_z(n), want_sum(buf.begin() + off,
                                        buf.begin() + off + n);
  for (std::size_t i = 0; i < n; ++i) {
    want_z[i] = scalar.complex_gaussian();
    want_sum[i] += amp * want_z[i];
  }
  batch.add_scaled_complex_gaussian(std::span(buf).subspan(off, n), amp,
                                    std::span(rec_buf).subspan(rec_off, 2 * n));
  ASSERT_EQ(0, std::memcmp(want_z.data(), rec_buf.data() + rec_off,
                           n * sizeof(cplx)));
  ASSERT_EQ(0, std::memcmp(want_sum.data(), buf.data() + off,
                           n * sizeof(cplx)));
  for (std::size_t i = 0; i < off; ++i) ASSERT_EQ(buf[i], (cplx{-1.0, -2.0}));
  for (std::size_t i = off + n; i < buf.size(); ++i)
    ASSERT_EQ(buf[i], (cplx{-1.0, -2.0}));
  for (std::size_t i = 0; i < rec_off; ++i) ASSERT_EQ(rec_buf[i], kFill);
  for (std::size_t i = rec_off + 2 * n; i < rec_buf.size(); ++i)
    ASSERT_EQ(rec_buf[i], kFill);
  // A record that does not hold exactly 2 * n doubles is rejected before
  // any draw or write.
  EXPECT_THROW(batch.add_scaled_complex_gaussian(
                   std::span(buf).subspan(off, n), amp,
                   std::span(rec_buf).subspan(rec_off, 2 * n - 1)),
               std::invalid_argument);
  expect_same_state(scalar, batch);
}

TEST(RngKernelsTest, AddScaledComplexGaussianMatchesScalarAwgnLoop) {
  for (const std::size_t n :
       {std::size_t{1}, std::size_t{17}, std::size_t{512}, std::size_t{777}}) {
    const double amp = 0.037;
    rng scalar(404), batch(404);
    std::vector<cplx> want(n), got(n);
    for (std::size_t i = 0; i < n; ++i)
      want[i] = got[i] = cplx{0.25 * static_cast<double>(i), -0.5};
    for (cplx& v : want) v += amp * scalar.complex_gaussian();
    batch.add_scaled_complex_gaussian(got, amp);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(want[i].real(), got[i].real()) << "n=" << n << " i=" << i;
      ASSERT_EQ(want[i].imag(), got[i].imag()) << "n=" << n << " i=" << i;
    }
    expect_same_state(scalar, batch);
  }
}

TEST(RngKernelsTest, ForkAfterBatchFillMatchesScalarFork) {
  // fork() derives the child from the next stream draw, so identical
  // stream positions after a fill imply identical children.
  rng scalar(808), batch(808);
  std::vector<double> want(11), got(11);
  for (auto& w : want) w = scalar.gaussian();
  batch.fill_gaussian(got);
  rng scalar_child = scalar.fork();
  rng batch_child = batch.fork();
  for (int i = 0; i < 16; ++i)
    ASSERT_EQ(scalar_child.next_u64(), batch_child.next_u64());
  expect_same_state(scalar, batch);
}

TEST(RngKernelsTest, RandomBitsLegacyStreamPositionsUnchanged) {
  // The legacy method burns one full draw per bit (bit 0 of each draw);
  // pinned tag payloads depend on those positions. Lock the behaviour.
  rng gen(31), ref(31);
  const auto bits = gen.random_bits(100);
  ASSERT_EQ(bits.size(), 100u);
  for (std::size_t i = 0; i < 100; ++i)
    EXPECT_EQ(bits[i], static_cast<std::uint8_t>(ref.next_u64() & 1u));
  EXPECT_EQ(gen.next_u64(), ref.next_u64());
}

TEST(RngKernelsTest, SaveRestoreRoundTrips) {
  rng gen(12345);
  (void)gen.gaussian();  // park a spare so the snapshot carries it
  const rng::state_snapshot snap = gen.save();
  std::vector<double> first(9), again(9);
  gen.fill_gaussian(first);
  const rng::state_snapshot end = gen.save();
  gen.restore(snap);
  gen.fill_gaussian(again);
  for (std::size_t i = 0; i < first.size(); ++i)
    EXPECT_EQ(first[i], again[i]);
  EXPECT_EQ(gen.save(), end);
  EXPECT_TRUE(snap == snap);
  EXPECT_FALSE(snap == end);
}

}  // namespace
}  // namespace backfi::dsp
