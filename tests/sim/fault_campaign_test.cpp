#include "sim/fault_campaign.h"

#include <gtest/gtest.h>

#include "mac_counters.h"

namespace backfi::sim {
namespace {

campaign_config small_config() {
  campaign_config config;
  config.link.excitation.ppdu_bytes = 1500;
  config.payload_bits = 128;
  config.opportunities = 8;
  config.seed = 21;
  return config;
}

TEST(FaultCampaignTest, CleanLinkDeliversEqualGoodputInBothArms) {
  const campaign_config config = small_config();
  const auto baseline =
      run_campaign_arm(config, impair::fault_class::none, 0.0, false);
  const auto recovery =
      run_campaign_arm(config, impair::fault_class::none, 0.0, true);
  EXPECT_EQ(baseline.success_rate, 1.0);
  EXPECT_EQ(recovery.success_rate, 1.0);
  EXPECT_DOUBLE_EQ(baseline.goodput_bps, recovery.goodput_bps);
  EXPECT_EQ(recovery.retries, 0u);
  EXPECT_EQ(recovery.fallbacks, 0u);
}

TEST(FaultCampaignTest, RecoveryArmSurvivesCfoThatCollapsesBaseline) {
  const campaign_config config = small_config();
  const auto baseline =
      run_campaign_arm(config, impair::fault_class::cfo_drift, 0.5, false);
  const auto recovery =
      run_campaign_arm(config, impair::fault_class::cfo_drift, 0.5, true);
  // The acceptance criterion in miniature: the fixed-rate plain chain
  // collapses, the hardened + supervised arm keeps delivering and reaches
  // its first success within a bounded number of polls.
  EXPECT_EQ(baseline.goodput_bps, 0.0);
  EXPECT_GT(recovery.goodput_bps, 0.0);
  EXPECT_LT(recovery.first_success_poll, config.opportunities);
}

TEST(FaultCampaignTest, BaselineNeverMovesItsOperatingPoint) {
  const campaign_config config = small_config();
  const auto run = run_campaign_arm(
      config, impair::fault_class::canceller_stage_failure, 1.0, false);
  EXPECT_EQ(run.final_rate.symbol_rate_hz, config.start_rate.symbol_rate_hz);
  EXPECT_EQ(run.final_rate.modulation, config.start_rate.modulation);
  EXPECT_EQ(run.retries, 0u);
  EXPECT_EQ(run.fallbacks, 0u);
}

TEST(FaultCampaignTest, SweepCoversEveryClassAndSeverity) {
  campaign_config config = small_config();
  config.opportunities = 2;
  config.faults = {impair::fault_class::tag_brownout,
                   impair::fault_class::wifi_interferer};
  config.severities = {0.0, 1.0};
  const auto result = run_fault_campaign(config);
  ASSERT_EQ(result.cells.size(), 4u);
  EXPECT_EQ(result.cells[0].fault, impair::fault_class::tag_brownout);
  EXPECT_EQ(result.cells[0].severity, 0.0);
  EXPECT_EQ(result.cells[3].fault, impair::fault_class::wifi_interferer);
  EXPECT_EQ(result.cells[3].severity, 1.0);
}

// Every output of six arms, exact: three (fault, severity) cells, each in
// the baseline and the recovery arm. The recovery arms walk retries,
// fallbacks and probe-ups, so a change to the supervisor's decisions or
// to the trial each poll runs moves at least one field.
TEST(FaultCampaignTest, ArmOutputsPinned) {
  struct pinned {
    impair::fault_class fault;
    double severity;
    bool recovery;
    double goodput_bps;
    std::size_t polls_issued, retries, fallbacks, probe_ups,
        first_success_poll;
    tag::tag_modulation final_modulation;
    phy::code_rate final_coding;
    double final_symbol_rate_hz;
    mac_counts counters;
  };
  const pinned expected[] = {
      {impair::fault_class::cfo_drift, 0.5, false,
       0x0p+0, 24, 0, 0, 0, 24,
       tag::tag_modulation::qpsk, phy::code_rate::half, 0x1.e848p+20,
       {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
      {impair::fault_class::cfo_drift, 0.5, true,
       0x1.81cd6e9e06523p+17, 24, 3, 1, 4, 0,
       tag::tag_modulation::psk8, phy::code_rate::two_thirds, 0x1.312dp+21,
       {12, 3, 1, 4, 5, 0, 0, 0, 0, 0, 0, 0, 0}},
      {impair::fault_class::phase_noise, 1.0, false,
       0x0p+0, 24, 0, 0, 0, 24,
       tag::tag_modulation::qpsk, phy::code_rate::half, 0x1.e848p+20,
       {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
      {impair::fault_class::phase_noise, 1.0, true,
       0x1.0e0fcd6e9e065p+17, 24, 8, 2, 2, 0,
       tag::tag_modulation::qpsk, phy::code_rate::half, 0x1.e848p+20,
       {14, 8, 2, 2, 5, 0, 0, 0, 0, 0, 0, 0, 0}},
      {impair::fault_class::canceller_stage_failure, 1.0, false,
       0x1.34a4587e6b74fp+14, 24, 0, 0, 0, 7,
       tag::tag_modulation::qpsk, phy::code_rate::half, 0x1.e848p+20,
       {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
      {impair::fault_class::canceller_stage_failure, 1.0, true,
       0x1.cef684bda12f7p+14, 18, 13, 2, 0, 0,
       tag::tag_modulation::qpsk, phy::code_rate::half, 0x1.e848p+18,
       {9, 13, 2, 0, 2, 0, 4, 0, 0, 0, 0, 0, 0}},
  };
  campaign_config config = small_config();
  config.opportunities = 24;
  config.arq.probe_up_after = 4;
  for (const pinned& want : expected) {
    obs::collector collector;
    config.link.collector = &collector;
    const campaign_run run = run_campaign_arm(config, want.fault,
                                              want.severity, want.recovery);
    const std::string arm = std::string(impair::fault_class_name(want.fault)) +
                            (want.recovery ? " recovery" : " baseline");
    EXPECT_EQ(run.goodput_bps, want.goodput_bps) << arm;
    EXPECT_EQ(run.polls_issued, want.polls_issued) << arm;
    EXPECT_EQ(run.retries, want.retries) << arm;
    EXPECT_EQ(run.fallbacks, want.fallbacks) << arm;
    EXPECT_EQ(run.probe_ups, want.probe_ups) << arm;
    EXPECT_EQ(run.first_success_poll, want.first_success_poll) << arm;
    EXPECT_EQ(run.final_rate.modulation, want.final_modulation) << arm;
    EXPECT_EQ(run.final_rate.coding, want.final_coding) << arm;
    EXPECT_EQ(run.final_rate.symbol_rate_hz, want.final_symbol_rate_hz)
        << arm;
    EXPECT_EQ(read_mac_counters(collector), want.counters) << arm;
  }
}

TEST(FaultCampaignTest, RunsAreDeterministic) {
  const campaign_config config = small_config();
  const auto a =
      run_campaign_arm(config, impair::fault_class::phase_noise, 1.0, true);
  const auto b =
      run_campaign_arm(config, impair::fault_class::phase_noise, 1.0, true);
  EXPECT_DOUBLE_EQ(a.goodput_bps, b.goodput_bps);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.fallbacks, b.fallbacks);
  EXPECT_EQ(a.first_success_poll, b.first_success_poll);
}

}  // namespace
}  // namespace backfi::sim
