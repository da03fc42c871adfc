#include "tag/tag_device.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "dsp/rng.h"
#include "phy/constellation.h"
#include "phy/crc32.h"

namespace backfi::tag {
namespace {

tag_config default_config() {
  tag_config cfg;
  cfg.id = 1;
  cfg.rate = {tag_modulation::qpsk, phy::code_rate::half, 1e6};
  return cfg;
}

TEST(TagDeviceTest, RejectsNonDividingSymbolRate) {
  tag_config cfg = default_config();
  cfg.rate.symbol_rate_hz = 3e6;  // 20e6/3e6 not integer
  EXPECT_THROW(tag_device{cfg}, std::invalid_argument);
}

TEST(TagDeviceTest, RejectsThreeQuarterRate) {
  tag_config cfg = default_config();
  cfg.rate.coding = phy::code_rate::three_quarters;
  EXPECT_THROW(tag_device{cfg}, std::invalid_argument);
}

TEST(TagConfigValidate, ReportsEachViolation) {
  EXPECT_EQ(default_config().validate(), config_error::none);
  for (const double rate : {3e6, 0.0, -1e6, 30e6, 1e-300,
                            std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::quiet_NaN()}) {
    tag_config cfg = default_config();
    cfg.rate.symbol_rate_hz = rate;
    EXPECT_EQ(cfg.validate(), config_error::bad_symbol_rate) << rate;
  }
  {
    tag_config cfg = default_config();
    cfg.rate.coding = phy::code_rate::three_quarters;
    EXPECT_EQ(cfg.validate(), config_error::unsupported_coding);
  }
  {
    tag_config cfg = default_config();
    cfg.silent_us = std::numeric_limits<std::size_t>::max() / 10;
    EXPECT_EQ(cfg.validate(), config_error::frame_not_representable);
  }
  {
    tag_config cfg = default_config();
    cfg.sync_symbols = std::numeric_limits<std::size_t>::max() / 20 - 10;
    EXPECT_EQ(cfg.validate(), config_error::frame_not_representable);
  }
  EXPECT_STREQ(to_string(config_error::unsupported_coding),
               "unsupported_coding");
}

TEST(TagConfigValidate, ConstructorThrowsWithCallSiteAndReason) {
  tag_config cfg = default_config();
  cfg.rate.coding = phy::code_rate::three_quarters;
  try {
    (void)tag_device(cfg);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("tag_device"), std::string::npos) << what;
    EXPECT_NE(what.find("unsupported_coding"), std::string::npos) << what;
  }
}

TEST(TagDeviceTest, FrameLayoutRejectsUnrepresentableFrames) {
  const tag_config cfg = default_config();
  EXPECT_TRUE(frame_layout(cfg, std::size_t{1} << 40));
  // ~SIZE_MAX / 4 QPSK symbols of 20 samples each do not fit std::size_t.
  EXPECT_FALSE(frame_layout(cfg, max_payload_bits));
  EXPECT_FALSE(frame_layout(cfg, max_payload_bits + 1));
  const std::size_t top = std::numeric_limits<std::size_t>::max();
  EXPECT_FALSE(frame_layout(cfg, 100, top - 1000));
  // The tag refuses a time origin whose frame would wrap instead of
  // emitting at wrapped offsets.
  const tag_device dev(cfg);
  tag_transmission tx;
  EXPECT_THROW(dev.backscatter_into(phy::bitvec(100, 1), 4000, top - 1000, tx),
               std::invalid_argument);
}

TEST(TagDeviceTest, SamplesPerSymbolForStandardRates) {
  const std::size_t expected[] = {2000, 200, 40, 20, 10, 8};
  std::size_t i = 0;
  for (double rate : standard_symbol_rates()) {
    tag_config cfg = default_config();
    cfg.rate.symbol_rate_hz = rate;
    EXPECT_EQ(tag_device(cfg).samples_per_symbol(), expected[i]) << rate;
    ++i;
  }
}

TEST(TagDeviceTest, TimelineMatchesPaperFigure4) {
  const tag_device dev(default_config());
  dsp::rng gen(1);
  const auto payload = gen.random_bits(200);
  const std::size_t origin = 320;  // wake fired 16 us into the timeline
  const auto tx = dev.backscatter(payload, 80000, origin);

  EXPECT_EQ(tx.silent_start, origin);
  EXPECT_EQ(tx.preamble_start, origin + 16 * 20);      // 16 us silent
  EXPECT_EQ(tx.sync_start, tx.preamble_start + 32 * 20);  // 32 us preamble
  EXPECT_EQ(tx.data_start, tx.sync_start + 16 * dev.samples_per_symbol());
}

TEST(TagDeviceTest, SilentPeriodReflectsNothing) {
  const tag_device dev(default_config());
  dsp::rng gen(2);
  const auto tx = dev.backscatter(gen.random_bits(100), 80000, 400);
  for (std::size_t n = 0; n < tx.preamble_start; ++n)
    EXPECT_EQ(tx.reflection[n], cplx(0.0, 0.0)) << n;
}

TEST(TagDeviceTest, PreambleIsConstantPhase) {
  const tag_device dev(default_config());
  dsp::rng gen(3);
  const auto tx = dev.backscatter(gen.random_bits(100), 80000, 400);
  const cplx first = tx.reflection[tx.preamble_start];
  EXPECT_GT(std::abs(first), 0.0);
  for (std::size_t n = tx.preamble_start; n < tx.sync_start; ++n)
    EXPECT_EQ(tx.reflection[n], first) << n;
}

TEST(TagDeviceTest, ReflectionAmplitudeMatchesInsertionLoss) {
  tag_config cfg = default_config();
  cfg.insertion_loss_db = 6.0;
  const tag_device dev(cfg);
  dsp::rng gen(4);
  const auto tx = dev.backscatter(gen.random_bits(64), 80000, 0);
  for (std::size_t n = tx.data_start; n < tx.data_end; ++n)
    EXPECT_NEAR(std::abs(tx.reflection[n]), std::pow(10.0, -6.0 / 20.0), 1e-12);
}

TEST(TagDeviceTest, PayloadSymbolsPerModulationAndRate) {
  // 100 payload bits + 32 CRC = 132 info; rate 1/2 -> 2*(132+6) = 276 coded.
  tag_config cfg = default_config();
  cfg.rate.modulation = tag_modulation::qpsk;
  EXPECT_EQ(tag_device(cfg).payload_symbols(100), 138u);  // 276/2
  cfg.rate.modulation = tag_modulation::psk16;
  EXPECT_EQ(tag_device(cfg).payload_symbols(100), 69u);  // 276/4
  cfg.rate.coding = phy::code_rate::two_thirds;
  // 2/3: coded = 207 -> ceil(207/4) = 52.
  EXPECT_EQ(tag_device(cfg).payload_symbols(100), 52u);
}

TEST(TagDeviceTest, PayloadSymbolsRejectsOversizedPayloads) {
  tag_config cfg = default_config();
  cfg.rate.modulation = tag_modulation::psk16;
  const tag_device device(cfg);
  // 2^40 + 32 info bits at rate 1/2: 2 * (2^40 + 38) coded, 4 per symbol.
  EXPECT_EQ(device.payload_symbols(std::size_t{1} << 40),
            ((std::size_t{1} << 40) + 38) / 2);
  EXPECT_NO_THROW(device.payload_symbols(max_payload_bits));
  EXPECT_THROW(device.payload_symbols(max_payload_bits + 1),
               std::invalid_argument);
  EXPECT_THROW(device.payload_symbols(SIZE_MAX - 20), std::invalid_argument);
}

TEST(TagDeviceTest, SymbolsArePiecewiseConstantPskPoints) {
  const tag_device dev(default_config());
  dsp::rng gen(5);
  const auto tx = dev.backscatter(gen.random_bits(80), 80000, 0);
  const auto& c = phy::psk_constellation(4);
  const double amp = std::pow(10.0, -default_config().insertion_loss_db / 20.0);
  for (std::size_t s = 0; s < tx.n_payload_symbols; ++s) {
    const std::size_t start = tx.data_start + s * tx.samples_per_symbol;
    const cplx value = tx.reflection[start];
    // Constant across the symbol.
    for (std::size_t n = start; n < start + tx.samples_per_symbol; ++n)
      ASSERT_EQ(tx.reflection[n], value);
    // On the scaled PSK circle.
    bool found = false;
    for (const cplx& p : c.points)
      if (std::abs(value - amp * p) < 1e-9) found = true;
    EXPECT_TRUE(found) << "symbol " << s;
  }
}

TEST(TagDeviceTest, InfoBitsCarryValidCrc) {
  const tag_device dev(default_config());
  dsp::rng gen(6);
  const auto payload = gen.random_bits(128);
  const auto tx = dev.backscatter(payload, 80000, 0);
  EXPECT_EQ(tx.info_bits.size(), payload.size() + 32);
  EXPECT_TRUE(phy::check_crc32(tx.info_bits));
}

TEST(TagDeviceTest, TruncatesWhenExcitationEnds) {
  const tag_device dev(default_config());
  dsp::rng gen(7);
  // Room for the protocol overhead but only a few payload symbols.
  const std::size_t total = 320 + 320 + 640 + 16 * 20 + 5 * 20 + 7;
  const auto tx = dev.backscatter(gen.random_bits(500), total, 320);
  EXPECT_EQ(tx.n_payload_symbols, 5u);
  EXPECT_LE(tx.data_end, total);
}

TEST(TagDeviceTest, EnergyAccountingUsesModel) {
  const tag_device dev(default_config());
  dsp::rng gen(8);
  const auto payload = gen.random_bits(100);
  const auto tx = dev.backscatter(payload, 80000, 0);
  const double expected =
      energy_per_bit_pj(default_config().rate) * (100.0 + 32.0);
  EXPECT_NEAR(tx.energy_pj, expected, 1e-9);
  EXPECT_GT(tx.switch_toggles, 0u);
}

TEST(TagDeviceTest, SyncLabelsDeterministicPerId) {
  tag_config a = default_config();
  const auto la = tag_device(a).sync_labels();
  const auto lb = tag_device(a).sync_labels();
  EXPECT_EQ(la, lb);
  a.id = 99;
  const auto lc = tag_device(a).sync_labels();
  EXPECT_NE(la, lc);
}

}  // namespace
}  // namespace backfi::tag
