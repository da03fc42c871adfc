#include "tag/energy_model.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

namespace backfi::tag {
namespace {

TEST(EnergyModelTest, ModulationProperties) {
  EXPECT_EQ(bits_per_symbol(tag_modulation::bpsk), 1u);
  EXPECT_EQ(bits_per_symbol(tag_modulation::qpsk), 2u);
  EXPECT_EQ(bits_per_symbol(tag_modulation::psk8), 3u);
  EXPECT_EQ(bits_per_symbol(tag_modulation::psk16), 4u);
  // Paper Section 5.2.1: BPSK 1 switch, QPSK 3 switches, 16-PSK 15 switches.
  EXPECT_EQ(switch_count(tag_modulation::bpsk), 1u);
  EXPECT_EQ(switch_count(tag_modulation::qpsk), 3u);
  EXPECT_EQ(switch_count(tag_modulation::psk16), 15u);
}

TEST(EnergyModelTest, ThroughputExamples) {
  // Fig. 7 throughput column: 16PSK 2/3 @ 2.5 MHz = 6.67 Mbps.
  EXPECT_NEAR(throughput_bps({tag_modulation::psk16, phy::code_rate::two_thirds,
                              2.5e6}),
              6.67e6, 0.01e6);
  // BPSK 1/2 @ 10 kHz = 5 Kbps.
  EXPECT_NEAR(throughput_bps({tag_modulation::bpsk, phy::code_rate::half, 1e4}),
              5e3, 1.0);
}

TEST(EnergyModelTest, ReferenceConfigHasUnitRepb) {
  EXPECT_NEAR(relative_energy_per_bit(
                  {tag_modulation::bpsk, phy::code_rate::half, 1e6}),
              1.0, 1e-3);
  EXPECT_NEAR(energy_per_bit_pj({tag_modulation::bpsk, phy::code_rate::half, 1e6}),
              3.15, 0.01);
}

TEST(EnergyModelTest, RejectsNonPositiveOrNonFiniteSymbolRate) {
  for (const double rate : {0.0, -1e6, std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::quiet_NaN()}) {
    const tag_rate_config config{tag_modulation::bpsk, phy::code_rate::half,
                                 rate};
    EXPECT_THROW((void)relative_energy_per_bit(config), std::invalid_argument)
        << rate;
    EXPECT_THROW((void)energy_per_bit_pj(config), std::invalid_argument)
        << rate;
  }
}

// The full Fig. 7 table from the paper: REPB for each (modulation, rate)
// pair at each symbol switching rate. The energy model must reproduce the
// published values.
struct fig7_row {
  double symbol_rate_hz;
  // Columns: BPSK 1/2, BPSK 2/3, QPSK 1/2, QPSK 2/3, 16PSK 1/2, 16PSK 2/3.
  double repb[6];
};

constexpr fig7_row kFig7[] = {
    {1e4, {29.2162, 28.1984, 31.2517, 29.7250, 40.4117, 36.5951}},
    {1e5, {3.5651, 3.3333, 4.0287, 3.6810, 6.1151, 5.2458}},
    {5e5, {1.2850, 1.1231, 1.6089, 1.3660, 3.0665, 2.4592}},
    {1e6, {1.0000, 0.8468, 1.3064, 1.0766, 2.6855, 2.1109}},
    {2e6, {0.8575, 0.7086, 1.1552, 0.9319, 2.4949, 1.9367}},
    {2.5e6, {0.8290, 0.6810, 1.1250, 0.9030, 2.4568, 1.9019}},
};

constexpr double kFig7Throughput[][6] = {
    {5e3, 6.67e3, 10e3, 13.33e3, 20e3, 26.66e3},
    {50e3, 66.7e3, 100e3, 133.3e3, 200e3, 266.6e3},
    {0.25e6, 0.33e6, 0.5e6, 0.67e6, 1e6, 1.33e6},
    {0.5e6, 0.67e6, 1e6, 1.33e6, 2e6, 2.67e6},
    {1e6, 1.33e6, 2e6, 2.67e6, 4e6, 5.33e6},
    {1.25e6, 1.67e6, 2.5e6, 3.33e6, 5e6, 6.67e6},
};

TEST(EnergyModelTest, ReproducesFullFig7Table) {
  const auto configs = fig7_configs();
  ASSERT_EQ(configs.size(), 6u);
  for (const auto& row : kFig7) {
    for (std::size_t c = 0; c < 6; ++c) {
      tag_rate_config config = configs[c];
      config.symbol_rate_hz = row.symbol_rate_hz;
      const double repb = relative_energy_per_bit(config);
      EXPECT_NEAR(repb / row.repb[c], 1.0, 0.002)
          << modulation_name(config.modulation) << " "
          << phy::code_rate_name(config.coding) << " @ " << row.symbol_rate_hz;
    }
  }
}

TEST(EnergyModelTest, ReproducesFig7Throughputs) {
  const auto configs = fig7_configs();
  for (std::size_t r = 0; r < 6; ++r) {
    for (std::size_t c = 0; c < 6; ++c) {
      tag_rate_config config = configs[c];
      config.symbol_rate_hz = kFig7[r].symbol_rate_hz;
      // 1.5% tolerance: the paper prints rounded values (".33 Mbps" for
      // the exact 1/3 Mbps, etc.).
      EXPECT_NEAR(throughput_bps(config) / kFig7Throughput[r][c], 1.0, 0.015)
          << r << "," << c;
    }
  }
}

TEST(EnergyModelTest, PaperObservationQpskTwoThirdsBeatsHalfAt1Msps) {
  // Section 6.1: "going from (QPSK, 1/2) to (QPSK, 2/3) results in a
  // decrease in REPB".
  const double half = relative_energy_per_bit(
      {tag_modulation::qpsk, phy::code_rate::half, 1e6});
  const double two_thirds = relative_energy_per_bit(
      {tag_modulation::qpsk, phy::code_rate::two_thirds, 1e6});
  EXPECT_LT(two_thirds, half);
}

TEST(EnergyModelTest, StaticShareGrowsAtLowSymbolRates) {
  // Section 5.2.1: reducing the symbol rate increases EPB because static
  // power accrues for longer per bit.
  // The dynamic part does not depend on the symbol rate, so a rate high
  // enough to make static power negligible isolates it.
  const auto repb = [](double symbol_rate_hz) {
    return relative_energy_per_bit(
        {tag_modulation::bpsk, phy::code_rate::half, symbol_rate_hz});
  };
  const double dynamic = repb(1e12);
  const double slow_static = repb(1e4) - dynamic;
  const double fast_static = repb(2.5e6) - dynamic;
  EXPECT_GT(fast_static, 0.0);
  EXPECT_GT(slow_static, 30.0 * fast_static);
}

TEST(EnergyModelTest, RelativeModulatorCostMatchesPaperRatios) {
  // Paper: modulator EPB ratio QPSK/BPSK = 3/2, 16PSK/BPSK = 15/4 (dynamic
  // part, same coding rate). Subtract the common base to isolate it.
  const double base = 0.137;
  const double bpsk = relative_energy_per_bit(
                          {tag_modulation::bpsk, phy::code_rate::half, 1e9}) -
                      base;  // huge rate -> static negligible
  const double qpsk = relative_energy_per_bit(
                          {tag_modulation::qpsk, phy::code_rate::half, 1e9}) -
                      base;
  const double psk16 = relative_energy_per_bit(
                           {tag_modulation::psk16, phy::code_rate::half, 1e9}) -
                       base;
  EXPECT_NEAR(qpsk / bpsk, 1.5, 0.01);
  EXPECT_NEAR(psk16 / bpsk, 15.0 / 4.0, 0.01);
}

TEST(EnergyModelTest, StandardSymbolRatesAreFig7Columns) {
  const auto rates = standard_symbol_rates();
  ASSERT_EQ(rates.size(), 6u);
  EXPECT_DOUBLE_EQ(rates.front(), 1e4);
  EXPECT_DOUBLE_EQ(rates.back(), 2.5e6);
}

}  // namespace
}  // namespace backfi::tag
