#include "sim/wild_traffic.h"

#include <gtest/gtest.h>

#include "mac_counters.h"
#include "sim/fault_campaign.h"
#include "sim/parallel.h"

namespace backfi::sim {
namespace {

wild_traffic_config small_config() {
  wild_traffic_config config;
  config.link.excitation.ppdu_bytes = 1500;
  config.coding.block_symbols = 4;
  config.coding.symbol_bytes = 4;
  config.coding.rs_repair_symbols = 2;
  config.opportunities = 12;
  config.trials = 1;
  config.mean_burst_polls = 3.0;
  config.seed = 33;
  return config;
}

TEST(WildTrafficTest, CleanAirDecodesBlocksInEveryScheme) {
  const wild_traffic_config config = small_config();
  for (const phy::erasure_scheme scheme :
       {phy::erasure_scheme::none, phy::erasure_scheme::reed_solomon}) {
    const wild_run run = run_wild_arm(config, scheme, 1.0, 7);
    EXPECT_EQ(run.delivered_fraction, 1.0) << static_cast<int>(scheme);
    EXPECT_GT(run.blocks_decoded, 0.0) << static_cast<int>(scheme);
    EXPECT_GT(run.goodput_bps, 0.0) << static_cast<int>(scheme);
    EXPECT_EQ(run.blocks_abandoned, 0.0) << static_cast<int>(scheme);
  }
}

TEST(WildTrafficTest, CodedSchemesOutliveBurstsThatStallPlainArq) {
  wild_traffic_config config = small_config();
  config.opportunities = 48;
  const double duty = 0.6;
  const wild_run plain =
      run_wild_arm(config, phy::erasure_scheme::none, duty, 5);
  const wild_run rs =
      run_wild_arm(config, phy::erasure_scheme::reed_solomon, duty, 5);
  // Identical air (same arm seed => same burst schedule and PHY draws):
  // the whole-block packet needs k contiguous ON slots, the coded stream
  // only needs k ON slots anywhere.
  EXPECT_GE(rs.blocks_decoded, plain.blocks_decoded);
  EXPECT_GT(rs.blocks_decoded, 0.0);
}

TEST(WildTrafficTest, ArmsAreDeterministic) {
  const wild_traffic_config config = small_config();
  const wild_run a =
      run_wild_arm(config, phy::erasure_scheme::reed_solomon, 0.6, 9);
  const wild_run b =
      run_wild_arm(config, phy::erasure_scheme::reed_solomon, 0.6, 9);
  EXPECT_DOUBLE_EQ(a.goodput_bps, b.goodput_bps);
  EXPECT_DOUBLE_EQ(a.delivered_fraction, b.delivered_fraction);
  EXPECT_DOUBLE_EQ(a.polls_issued, b.polls_issued);
  EXPECT_DOUBLE_EQ(a.blocks_decoded, b.blocks_decoded);
  EXPECT_DOUBLE_EQ(a.repair_symbols, b.repair_symbols);
}

// Every output of four arms, exact: both schemes at duty 0.5 and 1.0 on
// one arm seed. The plain arm's whole-block packets walk the packet
// ladder (retries, fallbacks, backoff); the coded arms walk the erasure
// backoff and the repair budget.
TEST(WildTrafficTest, ArmOutputsPinned) {
  struct pinned {
    phy::erasure_scheme scheme;
    double duty_cycle;
    double goodput_bps, delivered_fraction, polls_issued, blocks_decoded,
        blocks_abandoned, repair_symbols, block_latency_polls;
    mac_counts counters;
  };
  const pinned expected[] = {
      {phy::erasure_scheme::none, 1.0,
       0x1.cef684bda12f7p+15, 0x1p+0, 0x1.8p+2,
       0x1.8p+2, 0x0p+0, 0x0p+0, 0x1p+2,
       {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
      {phy::erasure_scheme::none, 0.5,
       0x0p+0, 0x0p+0, 0x1.4p+2,
       0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0,
       {3, 4, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0}},
      {phy::erasure_scheme::reed_solomon, 1.0,
       0x1.81cd6e9e06523p+15, 0x1.eaaaaaaaaaaabp-1, 0x1.8p+4,
       0x1.4p+2, 0x0p+0, 0x0p+0, 0x1.0cccccccccccdp+2,
       {0, 0, 0, 0, 0, 0, 0, 23, 1, 0, 5, 0, 0}},
      {phy::erasure_scheme::reed_solomon, 0.5,
       0x1.34a4587e6b74fp+13, 0x1.3333333333333p-2, 0x1.4p+4,
       0x1p+0, 0x0p+0, 0x1.8p+3, 0x1.3p+4,
       {2, 0, 0, 0, 1, 0, 3, 6, 14, 1, 1, 3, 0}},
  };
  wild_traffic_config config = small_config();
  config.opportunities = 24;
  for (const pinned& want : expected) {
    obs::collector collector;
    config.link.collector = &collector;
    const wild_run run =
        run_wild_arm(config, want.scheme, want.duty_cycle, 5);
    const std::string arm = std::to_string(static_cast<int>(want.scheme)) +
                            " @ " + std::to_string(want.duty_cycle);
    EXPECT_EQ(run.goodput_bps, want.goodput_bps) << arm;
    EXPECT_EQ(run.delivered_fraction, want.delivered_fraction) << arm;
    EXPECT_EQ(run.polls_issued, want.polls_issued) << arm;
    EXPECT_EQ(run.blocks_decoded, want.blocks_decoded) << arm;
    EXPECT_EQ(run.blocks_abandoned, want.blocks_abandoned) << arm;
    EXPECT_EQ(run.repair_symbols, want.repair_symbols) << arm;
    EXPECT_EQ(run.block_latency_polls, want.block_latency_polls) << arm;
    EXPECT_EQ(read_mac_counters(collector), want.counters) << arm;
  }
}

TEST(WildTrafficTest, SweepCoversTheGridSchemeMajor) {
  wild_traffic_config config = small_config();
  config.opportunities = 4;
  config.schemes = {phy::erasure_scheme::none,
                    phy::erasure_scheme::reed_solomon};
  config.duty_cycles = {1.0, 0.5};
  const wild_result result = run_wild_traffic(config);
  ASSERT_EQ(result.cells.size(), 4u);
  EXPECT_EQ(result.cells[0].scheme, phy::erasure_scheme::none);
  EXPECT_EQ(result.cells[0].duty_cycle, 1.0);
  EXPECT_EQ(result.cells[1].duty_cycle, 0.5);
  EXPECT_EQ(result.cells[3].scheme, phy::erasure_scheme::reed_solomon);
  EXPECT_EQ(result.cells[3].duty_cycle, 0.5);
}

TEST(WildTrafficTest, SweepIsThreadCountInvariant) {
  wild_traffic_config config = small_config();
  config.opportunities = 6;
  config.schemes = {phy::erasure_scheme::reed_solomon};
  config.duty_cycles = {1.0, 0.5};
  config.trials = 2;
  wild_result serial, parallel;
  {
    scoped_thread_count threads(1);
    serial = run_wild_traffic(config);
  }
  {
    scoped_thread_count threads(4);
    parallel = run_wild_traffic(config);
  }
  ASSERT_EQ(serial.cells.size(), parallel.cells.size());
  for (std::size_t i = 0; i < serial.cells.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial.cells[i].mean.goodput_bps,
                     parallel.cells[i].mean.goodput_bps);
    EXPECT_DOUBLE_EQ(serial.cells[i].mean.blocks_decoded,
                     parallel.cells[i].mean.blocks_decoded);
    EXPECT_DOUBLE_EQ(serial.cells[i].mean.polls_issued,
                     parallel.cells[i].mean.polls_issued);
  }
}

TEST(WildTrafficTest, SingleArmRejectsZeroBurstLength) {
  // run_wild_arm is public and skips run_wild_traffic's validation; a zero
  // mean burst length must throw rather than grow the burst schedule
  // without bound.
  wild_traffic_config config = small_config();
  config.mean_burst_polls = 0.0;
  EXPECT_THROW(run_wild_arm(config, phy::erasure_scheme::none, 0.5, 7),
               std::invalid_argument);
  EXPECT_THROW(
      run_wild_arm(small_config(), phy::erasure_scheme::none, 0.0, 7),
      std::invalid_argument);
}

TEST(WildTrafficTest, DegenerateConfigsThrow) {
  {
    wild_traffic_config config = small_config();
    config.trials = 0;
    EXPECT_THROW(run_wild_traffic(config), std::invalid_argument);
  }
  {
    wild_traffic_config config = small_config();
    config.opportunities = 0;
    EXPECT_THROW(run_wild_traffic(config), std::invalid_argument);
  }
  {
    // A poll starts at most one block, so capping the polls keeps every
    // block id inside the packet header's 16 bits.
    wild_traffic_config config = small_config();
    config.opportunities = phy::max_block_ids + 1;
    EXPECT_THROW(run_wild_traffic(config), std::invalid_argument);
  }
  {
    wild_traffic_config config = small_config();
    config.schemes.clear();
    EXPECT_THROW(run_wild_traffic(config), std::invalid_argument);
  }
  {
    wild_traffic_config config = small_config();
    config.duty_cycles = {0.5, 0.0};
    EXPECT_THROW(run_wild_traffic(config), std::invalid_argument);
  }
  {
    wild_traffic_config config = small_config();
    config.duty_cycles = {1.5};
    EXPECT_THROW(run_wild_traffic(config), std::invalid_argument);
  }
  {
    wild_traffic_config config = small_config();
    config.mean_burst_polls = 0.0;
    EXPECT_THROW(run_wild_traffic(config), std::invalid_argument);
  }
  {
    // Zero-payload code geometry surfaces on the caller's thread.
    wild_traffic_config config = small_config();
    config.coding.symbol_bytes = 0;
    EXPECT_THROW(run_wild_traffic(config), std::invalid_argument);
  }
  {
    // RS block that cannot fit the GF(256) field.
    wild_traffic_config config = small_config();
    config.coding.block_symbols = 300;
    config.schemes = {phy::erasure_scheme::reed_solomon};
    EXPECT_THROW(run_wild_traffic(config), std::invalid_argument);
  }
  {
    wild_traffic_config config = small_config();
    config.link.excitation.n_ppdus = 0;  // scenario-level violation
    EXPECT_THROW(run_wild_traffic(config), std::invalid_argument);
  }
}

TEST(WildTrafficTest, PlainOnlyGridSkipsTheRsFieldCheck) {
  // The GF(256) field limit binds the coded arm only: a plain-ARQ grid
  // runs a block geometry RS could not code.
  wild_traffic_config config = small_config();
  config.coding.block_symbols = 300;
  config.schemes = {phy::erasure_scheme::none};
  config.duty_cycles = {1.0};
  const wild_result result = run_wild_traffic(config);
  ASSERT_EQ(result.cells.size(), 1u);
  // 300 symbol-slots never fit in 12 polls: nothing is sent.
  EXPECT_EQ(result.cells[0].mean.polls_issued, 0.0);
  config.schemes = {phy::erasure_scheme::none,
                    phy::erasure_scheme::reed_solomon};
  EXPECT_THROW(run_wild_traffic(config), std::invalid_argument);
}

// The extension's claim on bench/wild_traffic's geometry (k = 8 four-byte
// symbols, 4 repair, mean ON burst 2.5 polls, 128 polls per arm): at duty
// 0.5 plain ARQ has collapsed below 10% of its clean-air goodput while RS
// holds several times that share. Seed offsets 1..8 at 10 trials give
// plain 1.3-6.3% and RS 38.9-50.9%; the margins below sit outside that
// spread. (RS's expected share at duty 0.5 is ~45%, under the 50% bar the
// bench's criterion names: 40 trials give 43-46% at seeds 1 and 7.)
TEST(WildTrafficClaim, RsSustainsWherePlainArqCollapses) {
  wild_traffic_config config;
  config.link.excitation.ppdu_bytes = 1500;
  config.distance_m = 1.5;
  config.coding.block_symbols = 8;
  config.coding.symbol_bytes = 4;
  config.coding.rs_repair_symbols = 4;
  config.opportunities = 128;
  config.mean_burst_polls = 2.5;
  config.duty_cycles = {1.0, 0.5};
  config.trials = 10;
  config.seed = 7;
  const wild_result result = run_wild_traffic(config);
  ASSERT_EQ(result.cells.size(), 4u);
  const auto share = [&](std::size_t clean, std::size_t bursty) {
    EXPECT_GT(result.cells[clean].mean.goodput_bps, 0.0);
    return result.cells[bursty].mean.goodput_bps /
           result.cells[clean].mean.goodput_bps;
  };
  const double plain = share(0, 1);
  const double rs = share(2, 3);
  EXPECT_LT(plain, 0.10);
  EXPECT_GE(rs, 0.35);
  EXPECT_GE(rs, 5.0 * plain);
}

TEST(FaultCampaignHardeningTest, DegenerateCampaignsThrow) {
  // The same guard rail on the PR 1 campaign: the payload override used
  // to bypass validate_or_throw's zero_payload check entirely.
  campaign_config config;
  config.link.excitation.ppdu_bytes = 1500;
  config.opportunities = 2;
  {
    campaign_config bad = config;
    bad.payload_bits = 0;
    EXPECT_THROW(run_fault_campaign(bad), std::invalid_argument);
    EXPECT_THROW(run_campaign_arm(bad, impair::fault_class::none, 0.0, false),
                 std::invalid_argument);
  }
  {
    campaign_config bad = config;
    bad.opportunities = 0;
    EXPECT_THROW(run_fault_campaign(bad), std::invalid_argument);
  }
  {
    campaign_config bad = config;
    bad.severities.clear();
    EXPECT_THROW(run_fault_campaign(bad), std::invalid_argument);
  }
}

}  // namespace
}  // namespace backfi::sim
