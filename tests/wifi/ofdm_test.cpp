#include "wifi/ofdm.h"

#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "dsp/fft.h"
#include "dsp/rng.h"
#include "dsp/vec_ops.h"
#include "phy/constellation.h"
#include "wifi/rates.h"

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

TEST(OfdmTest, SubcarrierToBinRejectsOutOfRange) {
  EXPECT_EQ(subcarrier_to_bin(-32), 32u);
  EXPECT_EQ(subcarrier_to_bin(31), 31u);
  EXPECT_THROW(subcarrier_to_bin(32), std::invalid_argument);
  EXPECT_THROW(subcarrier_to_bin(-33), std::invalid_argument);
  EXPECT_THROW(subcarrier_to_bin(1000), std::invalid_argument);
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

// The per-symbol fft_plan path the four-symbol kernel replaced: scatter
// into a zeroed 64-bin buffer, the shared inverse plan, then 1/N and the
// tx scale as two multiplies, cyclic prefix first.
void plan_path_symbol(std::span<const cplx> points, std::size_t symbol_index,
                      cplx* out) {
  cvec freq(fft_size, cplx{0.0, 0.0});
  const auto data_sc = data_subcarrier_indices();
  for (std::size_t i = 0; i < n_data_subcarriers; ++i)
    freq[subcarrier_to_bin(data_sc[i])] = points[i];
  const double polarity = pilot_polarity(symbol_index);
  for (std::size_t i = 0; i < n_pilot_subcarriers; ++i)
    freq[subcarrier_to_bin(pilot_subcarrier_indices()[i])] =
        pilot_base_values()[i] * polarity;
  dsp::get_fft_plan(fft_size, dsp::fft_direction::inverse).execute(freq);
  constexpr double inv_n = 1.0 / static_cast<double>(fft_size);
  for (cplx& v : freq) {
    v *= inv_n;
    v *= tx_scale();
  }
  std::copy(freq.end() - cyclic_prefix, freq.end(), out);
  std::copy(freq.begin(), freq.end(), out + cyclic_prefix);
}

// Every rate's constellation, symbol counts of each residue mod 4 (the last
// pass then runs 4, 1, 2 or 3 real lanes) and pilot numbering across the
// 127-symbol polarity wrap: the multi-symbol form writes exactly the bytes
// of the per-symbol plan path, and nothing outside its output.
TEST(OfdmTest, MultiSymbolModulationMatchesPerSymbolPlanPath) {
  dsp::rng gen(0x0FD3);
  for (const rate_params& p : all_rates()) {
    const phy::constellation& c = phy::wifi_constellation(p.n_bpsc);
    for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                                std::size_t{4}, std::size_t{5}, std::size_t{6},
                                std::size_t{11}, std::size_t{334}}) {
      for (const std::size_t first : {std::size_t{0}, std::size_t{125}}) {
        cvec points(n * n_data_subcarriers);
        for (auto& v : points) v = c.points[gen.uniform_int(c.points.size())];
        cvec want(n * symbol_samples);
        for (std::size_t s = 0; s < n; ++s)
          plan_path_symbol(
              std::span<const cplx>(points).subspan(s * n_data_subcarriers,
                                                    n_data_subcarriers),
              first + s, want.data() + s * symbol_samples);
        cvec got(n * symbol_samples + 2, cplx{7.0, 7.0});
        modulate_symbols_into(points, first,
                              std::span<cplx>(got).subspan(1, want.size()));
        ASSERT_EQ(0, std::memcmp(got.data() + 1, want.data(),
                                 want.size() * sizeof(cplx)))
            << p.name << " n=" << n << " first=" << first;
        EXPECT_EQ(got.front(), (cplx{7.0, 7.0}));
        EXPECT_EQ(got.back(), (cplx{7.0, 7.0}));
      }
    }
  }
}

TEST(OfdmTest, MultiSymbolModulationRejectsPartialSymbols) {
  const cvec points(2 * n_data_subcarriers - 1, cplx{1.0, 0.0});
  cvec out(2 * symbol_samples);
  EXPECT_THROW(modulate_symbols_into(points, 0, out), std::invalid_argument);
  const cvec two(2 * n_data_subcarriers, cplx{1.0, 0.0});
  cvec short_out(2 * symbol_samples - 1);
  EXPECT_THROW(modulate_symbols_into(two, 0, short_out), std::invalid_argument);
  cvec empty_out;
  modulate_symbols_into(std::span<const cplx>(), 0, empty_out);
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
