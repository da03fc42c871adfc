#include "wifi/ofdm.h"

#include <gtest/gtest.h>

#include <set>

#include "dsp/rng.h"
#include "dsp/vec_ops.h"
#include "phy/constellation.h"

namespace backfi::wifi {
namespace {

/// map_into on a fresh buffer of bits.size() / bits_per_symbol points.
cvec map_bits(const phy::constellation& c, std::span<const std::uint8_t> bits) {
  cvec out(bits.size() / c.bits_per_symbol);
  c.map_into(bits, out);
  return out;
}

/// modulate_symbol_into on a fresh 80-sample buffer.
cvec modulated(std::span<const cplx> points, std::size_t symbol_index) {
  cvec out(symbol_samples);
  modulate_symbol_into(points, symbol_index, out);
  return out;
}

TEST(OfdmTest, SubcarrierLayoutDisjointAndComplete) {
  std::set<int> all;
  for (int sc : data_subcarrier_indices()) all.insert(sc);
  for (int sc : pilot_subcarrier_indices()) all.insert(sc);
  EXPECT_EQ(all.size(), 52u);
  EXPECT_EQ(all.count(0), 0u);  // DC unused
  for (int sc : all) {
    EXPECT_GE(sc, -26);
    EXPECT_LE(sc, 26);
  }
}

TEST(OfdmTest, SubcarrierToBinWrapsNegatives) {
  EXPECT_EQ(subcarrier_to_bin(0), 0u);
  EXPECT_EQ(subcarrier_to_bin(1), 1u);
  EXPECT_EQ(subcarrier_to_bin(-1), 63u);
  EXPECT_EQ(subcarrier_to_bin(-26), 38u);
  EXPECT_EQ(subcarrier_to_bin(26), 26u);
}

TEST(OfdmTest, PilotPolarityMatchesStandardPrefix) {
  // Clause 17.3.5.10: sequence begins +1 +1 +1 +1 -1 -1 -1 +1 ...
  const double expected[] = {1, 1, 1, 1, -1, -1, -1, 1, -1, -1, -1, -1, 1, 1, -1, 1};
  for (std::size_t i = 0; i < 16; ++i)
    EXPECT_DOUBLE_EQ(pilot_polarity(i), expected[i]) << i;
}

TEST(OfdmTest, PilotPolarityIs127Periodic) {
  for (std::size_t i = 0; i < 50; ++i)
    EXPECT_DOUBLE_EQ(pilot_polarity(i), pilot_polarity(i + 127));
}

TEST(OfdmTest, SymbolHasCorrectSizeAndCyclicPrefix) {
  dsp::rng gen(1);
  const auto& c = phy::wifi_constellation(2);
  const cvec points = map_bits(c, gen.random_bits(96));
  const cvec symbol = modulated(points, 3);
  ASSERT_EQ(symbol.size(), symbol_samples);
  // CP = last 16 samples of the useful part.
  for (std::size_t i = 0; i < cyclic_prefix; ++i)
    EXPECT_NEAR(std::abs(symbol[i] - symbol[i + fft_size]), 0.0, 1e-12) << i;
}

TEST(OfdmTest, SymbolMeanPowerNearUnity) {
  dsp::rng gen(2);
  const auto& c = phy::wifi_constellation(4);
  double total = 0.0;
  const int n_sym = 50;
  for (int s = 0; s < n_sym; ++s) {
    const cvec points = map_bits(c, gen.random_bits(192));
    total += dsp::mean_power(modulated(points, s));
  }
  EXPECT_NEAR(total / n_sym, 1.0, 0.1);
}

TEST(OfdmTest, ModulateDemodulateRoundTrip) {
  dsp::rng gen(3);
  const auto& c = phy::wifi_constellation(6);
  const cvec points = map_bits(c, gen.random_bits(288));
  const std::size_t sym_idx = 7;
  const cvec symbol = modulated(points, sym_idx);
  const auto demod = demodulate_symbol(symbol);
  for (std::size_t i = 0; i < n_data_subcarriers; ++i)
    EXPECT_NEAR(std::abs(demod.data[i] / tx_scale() - points[i]), 0.0, 1e-9) << i;
  // Pilots carry the polarity-scaled base values.
  const double pol = pilot_polarity(sym_idx);
  for (std::size_t i = 0; i < n_pilot_subcarriers; ++i)
    EXPECT_NEAR(std::abs(demod.pilots[i] / tx_scale() - pilot_base_values()[i] * pol),
                0.0, 1e-9)
        << i;
}

TEST(OfdmTest, ModulateRejectsWrongPointCount) {
  const cvec too_few(47, cplx{1.0, 0.0});
  cvec out(symbol_samples);
  EXPECT_THROW(modulate_symbol_into(too_few, 0, out), std::invalid_argument);
}

TEST(OfdmTest, DemodulateRejectsWrongSampleCount) {
  const cvec wrong(79, cplx{0.0, 0.0});
  EXPECT_THROW(demodulate_symbol(wrong), std::invalid_argument);
}

}  // namespace
}  // namespace backfi::wifi
