#include "phy/constellation.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>

#include "dsp/rng.h"

namespace backfi::phy {
namespace {

/// map_into on a fresh buffer of bits.size() / bits_per_symbol points.
cvec map_bits(const constellation& c, std::span<const std::uint8_t> bits) {
  cvec out(bits.size() / c.bits_per_symbol);
  c.map_into(bits, out);
  return out;
}

/// Hard decisions on a symbol stream: each symbol's sliced label, MSB first.
bitvec demap_hard(const constellation& c, std::span<const cplx> symbols) {
  bitvec out;
  for (const cplx& y : symbols) {
    const std::uint32_t label = c.slice(y);
    for (std::size_t b = c.bits_per_symbol; b-- > 0;)
      out.push_back(static_cast<std::uint8_t>((label >> b) & 1u));
  }
  return out;
}

TEST(GrayTest, EncodeDecodeRoundTrip) {
  for (std::uint32_t v = 0; v < 64; ++v) EXPECT_EQ(gray_decode(gray_encode(v)), v);
}

TEST(GrayTest, AdjacentValuesDifferInOneBit) {
  for (std::uint32_t v = 0; v + 1 < 64; ++v) {
    const std::uint32_t diff = gray_encode(v) ^ gray_encode(v + 1);
    EXPECT_EQ(diff & (diff - 1), 0u) << v;  // power of two -> single bit
  }
}

class WifiConstellationTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WifiConstellationTest, UnitMeanEnergy) {
  const auto& c = wifi_constellation(GetParam());
  double energy = 0.0;
  for (const cplx& p : c.points) energy += std::norm(p);
  EXPECT_NEAR(energy / static_cast<double>(c.points.size()), 1.0, 1e-12);
}

TEST_P(WifiConstellationTest, MapDemapHardRoundTrip) {
  const auto& c = wifi_constellation(GetParam());
  dsp::rng gen(GetParam());
  const bitvec bits = gen.random_bits(c.bits_per_symbol * 100);
  const cvec symbols = map_bits(c, bits);
  EXPECT_EQ(demap_hard(c, symbols), bits);
}

TEST_P(WifiConstellationTest, LlrSignsMatchTransmittedBits) {
  const auto& c = wifi_constellation(GetParam());
  dsp::rng gen(GetParam() + 100);
  const bitvec bits = gen.random_bits(c.bits_per_symbol * 50);
  const cvec symbols = map_bits(c, bits);
  std::vector<double> llrs;
  c.demap_llr_stream_into(symbols, 0.01, llrs);
  ASSERT_EQ(llrs.size(), bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    // positive favours bit 0
    EXPECT_EQ(llrs[i] < 0.0, bits[i] != 0) << "bit " << i;
  }
}

TEST_P(WifiConstellationTest, NoisyLlrMajorityCorrect) {
  const auto& c = wifi_constellation(GetParam());
  dsp::rng gen(GetParam() + 200);
  const bitvec bits = gen.random_bits(c.bits_per_symbol * 500);
  cvec symbols = map_bits(c, bits);
  const double sigma = 0.05;
  for (auto& s : symbols) s += sigma * gen.complex_gaussian();
  std::vector<double> llrs;
  c.demap_llr_stream_into(symbols, sigma * sigma, llrs);
  std::size_t wrong = 0;
  for (std::size_t i = 0; i < bits.size(); ++i)
    if ((llrs[i] < 0.0) != (bits[i] != 0)) ++wrong;
  EXPECT_LT(wrong, bits.size() / 100);
}

INSTANTIATE_TEST_SUITE_P(AllOrders, WifiConstellationTest,
                         ::testing::Values(1u, 2u, 4u, 6u));

TEST(WifiConstellationTest, BpskMapsOnRealAxis) {
  const auto& c = wifi_constellation(1);
  const bitvec bits = {0, 1};
  const cvec pts = map_bits(c, bits);
  EXPECT_NEAR(pts[0].real(), -1.0, 1e-15);
  EXPECT_NEAR(pts[1].real(), 1.0, 1e-15);
  EXPECT_NEAR(pts[0].imag(), 0.0, 1e-15);
}

TEST(WifiConstellationTest, SixteenQamCornerPoint) {
  // Label 0b1010 -> I bits 10 -> +3, Q bits 10 -> +3 (times 1/sqrt(10)).
  const auto& c = wifi_constellation(4);
  const bitvec bits = {1, 0, 1, 0};
  const cvec pts = map_bits(c, bits);
  const double k = 1.0 / std::sqrt(10.0);
  EXPECT_NEAR(pts[0].real(), 3.0 * k, 1e-12);
  EXPECT_NEAR(pts[0].imag(), 3.0 * k, 1e-12);
}

TEST(WifiConstellationTest, RejectsUnsupportedOrder) {
  EXPECT_THROW(wifi_constellation(3), std::invalid_argument);
}

class PskConstellationTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PskConstellationTest, PointsOnUnitCircle) {
  const auto& c = psk_constellation(GetParam());
  for (const cplx& p : c.points) EXPECT_NEAR(std::abs(p), 1.0, 1e-12);
}

TEST_P(PskConstellationTest, AdjacentPhasesAreGrayNeighbours) {
  const auto& c = psk_constellation(GetParam());
  const std::size_t order = c.points.size();
  for (std::size_t k = 0; k < order; ++k) {
    const std::uint32_t diff = c.labels[k] ^ c.labels[(k + 1) % order];
    EXPECT_EQ(diff & (diff - 1), 0u) << "phase step " << k;
  }
}

TEST_P(PskConstellationTest, MapDemapRoundTrip) {
  const auto& c = psk_constellation(GetParam());
  dsp::rng gen(GetParam() + 300);
  const bitvec bits = gen.random_bits(c.bits_per_symbol * 64);
  EXPECT_EQ(demap_hard(c, map_bits(c, bits)), bits);
}

TEST_P(PskConstellationTest, SliceRobustToSmallPhaseError) {
  const auto& c = psk_constellation(GetParam());
  const double half_step = pi / static_cast<double>(c.points.size());
  for (std::size_t k = 0; k < c.points.size(); ++k) {
    const cplx rotated = c.points[k] * cplx{std::cos(half_step * 0.8),
                                            std::sin(half_step * 0.8)};
    EXPECT_EQ(c.slice(rotated), c.labels[k]) << "point " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(AllOrders, PskConstellationTest,
                         ::testing::Values(2u, 4u, 8u, 16u));

TEST(PskConstellationTest, RejectsUnsupportedOrder) {
  EXPECT_THROW(psk_constellation(3), std::invalid_argument);
  EXPECT_THROW(psk_constellation(32), std::invalid_argument);
}

TEST(ConstellationTest, MapRejectsMisalignedBits) {
  const auto& c = wifi_constellation(2);
  const bitvec bits(3, 1);
  cvec out(1);
  EXPECT_THROW(c.map_into(bits, out), std::invalid_argument);
}

// The scan slice() replaced: ascending index, strict `<`, first point at the
// minimum distance wins. The vectorized nearest-point kernel must agree on
// every input, including exact ties and non-finite symbols.
std::uint32_t reference_slice(const constellation& c, cplx y) {
  std::size_t best = 0;
  double best_dist = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < c.points.size(); ++i) {
    const double d = std::norm(y - c.points[i]);
    if (d < best_dist) {
      best_dist = d;
      best = i;
    }
  }
  return c.labels[best];
}

TEST(SliceKernelTest, MatchesReferenceScanAllConstellations) {
  dsp::rng gen(42);
  std::vector<const constellation*> all;
  for (std::size_t b : {1u, 2u, 4u, 6u}) all.push_back(&wifi_constellation(b));
  for (std::size_t o : {2u, 4u, 8u, 16u}) all.push_back(&psk_constellation(o));
  for (const constellation* c : all) {
    for (int rep = 0; rep < 500; ++rep) {
      const cplx y = 1.5 * gen.complex_gaussian();
      ASSERT_EQ(c->slice(y), reference_slice(*c, y))
          << c->points.size() << " points, y=" << y;
    }
  }
}

TEST(SliceKernelTest, ExactTiesPickTheFirstPoint) {
  // Symbols equidistant from two or more points: the midpoint of every
  // adjacent 16-PSK pair, the origin (equidistant from all points), and
  // 16-QAM decision-boundary crossings. First (lowest-index) point must win,
  // exactly as in the reference scan.
  const auto& psk = psk_constellation(16);
  for (std::size_t i = 0; i < psk.points.size(); ++i) {
    const cplx mid =
        0.5 * (psk.points[i] + psk.points[(i + 1) % psk.points.size()]);
    EXPECT_EQ(psk.slice(mid), reference_slice(psk, mid)) << i;
  }
  EXPECT_EQ(psk.slice(cplx{0.0, 0.0}), reference_slice(psk, cplx{0.0, 0.0}));
  const auto& qam = wifi_constellation(4);
  for (std::size_t i = 0; i < qam.points.size(); ++i)
    for (std::size_t j = i + 1; j < qam.points.size(); ++j) {
      const cplx mid = 0.5 * (qam.points[i] + qam.points[j]);
      EXPECT_EQ(qam.slice(mid), reference_slice(qam, mid)) << i << "," << j;
    }
}

TEST(SliceKernelTest, NonFiniteSymbolReturnsFirstLabel) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (std::size_t o : {2u, 4u, 8u, 16u}) {
    const auto& c = psk_constellation(o);
    EXPECT_EQ(c.slice(cplx{nan, 0.0}), reference_slice(c, cplx{nan, 0.0}));
    EXPECT_EQ(c.slice(cplx{0.0, nan}), reference_slice(c, cplx{0.0, nan}));
    EXPECT_EQ(c.slice(cplx{inf, -inf}), reference_slice(c, cplx{inf, -inf}));
  }
}

TEST(DemapStreamIntoTest, BitIdenticalToPerSymbolDemap) {
  dsp::rng gen(43);
  for (std::size_t o : {2u, 4u, 8u, 16u}) {
    const auto& c = psk_constellation(o);
    cvec symbols(137);
    for (auto& s : symbols) s = gen.complex_gaussian();
    const double noise_var = 0.07;
    std::vector<double> got;
    c.demap_llr_stream_into(symbols, noise_var, got);
    ASSERT_EQ(got.size(), symbols.size() * c.bits_per_symbol);
    std::vector<double> per_symbol;
    for (std::size_t s = 0; s < symbols.size(); ++s) {
      c.demap_llr(symbols[s], noise_var, per_symbol);
      for (std::size_t b = 0; b < c.bits_per_symbol; ++b)
        ASSERT_EQ(got[s * c.bits_per_symbol + b], per_symbol[b])
            << "symbol " << s << " bit " << b;
    }
  }
}

// The stream demapper (the vector max-log kernel) against per-symbol
// demap_llr, compared as bytes, on every built-in constellation. The symbol
// set mixes random points with the inputs where a reordered or fused
// minimum would show: exact points (a zero distance), midpoints of every
// point pair (equal distances), the origin (all PSK distances equal), NaN,
// infinities, overflowing magnitudes, denormals and signed zeros. Every
// start offset puts each symbol in every vector lane and in the scalar
// tail.
TEST(DemapKernelTest, MatchesPerSymbolReferenceBitwise) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double sub = std::numeric_limits<double>::min() / 3.0;
  std::vector<const constellation*> all;
  for (std::size_t b : {1u, 2u, 4u, 6u}) all.push_back(&wifi_constellation(b));
  for (std::size_t o : {2u, 4u, 8u, 16u}) all.push_back(&psk_constellation(o));
  dsp::rng gen(45);
  for (const constellation* c : all) {
    cvec symbols;
    for (int rep = 0; rep < 64; ++rep)
      symbols.push_back(1.5 * gen.complex_gaussian());
    for (std::size_t i = 0; i < c->points.size(); ++i) {
      symbols.push_back(c->points[i]);
      for (std::size_t j = i + 1; j < c->points.size(); ++j)
        symbols.push_back(0.5 * (c->points[i] + c->points[j]));
    }
    for (const cplx y :
         {cplx{0.0, 0.0}, cplx{-0.0, -0.0}, cplx{nan, 0.0}, cplx{0.0, nan},
          cplx{nan, nan}, cplx{inf, 0.0}, cplx{-inf, 0.5}, cplx{0.3, inf},
          cplx{inf, -inf}, cplx{nan, inf}, cplx{1e300, 0.0},
          cplx{-1e300, 1e300}, cplx{1e155, 1e155}, cplx{tiny, -tiny},
          cplx{sub, sub}, cplx{-sub, tiny}})
      symbols.push_back(y);
    for (const double noise_var : {0.07, 1e-40, inf}) {
      for (std::size_t offset = 0; offset < 4; ++offset) {
        const std::span<const cplx> view =
            std::span<const cplx>(symbols).subspan(offset);
        std::vector<double> got;
        c->demap_llr_stream_into(view, noise_var, got);
        ASSERT_EQ(got.size(), view.size() * c->bits_per_symbol);
        std::vector<double> want;
        std::vector<double> per_symbol;
        for (const cplx& y : view) {
          c->demap_llr(y, noise_var, per_symbol);
          want.insert(want.end(), per_symbol.begin(), per_symbol.end());
        }
        for (std::size_t s = 0; s < view.size(); ++s)
          ASSERT_EQ(std::memcmp(got.data() + s * c->bits_per_symbol,
                                want.data() + s * c->bits_per_symbol,
                                c->bits_per_symbol * sizeof(double)),
                    0)
              << c->points.size() << " points, noise_var " << noise_var
              << ", offset " << offset << ", symbol " << view[s];
      }
    }
  }
}

TEST(DemapStreamIntoTest, ReusesWarmBufferAndResizes) {
  const auto& c = psk_constellation(16);
  dsp::rng gen(44);
  cvec big(64), small(8);
  for (auto& s : big) s = gen.complex_gaussian();
  for (auto& s : small) s = gen.complex_gaussian();
  std::vector<double> out;
  c.demap_llr_stream_into(big, 0.1, out);
  EXPECT_EQ(out.size(), big.size() * c.bits_per_symbol);
  c.demap_llr_stream_into(small, 0.1, out);
  EXPECT_EQ(out.size(), small.size() * c.bits_per_symbol);
  std::vector<double> fresh;
  c.demap_llr_stream_into(small, 0.1, fresh);
  EXPECT_EQ(out, fresh);
}

}  // namespace
}  // namespace backfi::phy
