#include "sim/coexistence.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>

#include "channel/pathloss.h"

namespace backfi::sim {
namespace {

coexistence_config base_config() {
  coexistence_config cfg;
  cfg.ap_client_distance_m = 5.0;
  cfg.ap_tag_distance_m = 1.0;
  cfg.rate = wifi::wifi_rate::mbps24;
  cfg.ppdu_bytes = 500;
  cfg.tag.rate = {tag::tag_modulation::qpsk, phy::code_rate::half, 1e6};
  cfg.seed = 1;
  return cfg;
}

/// Client packets decoded over `trials` runs seeded seed * 7919 + t.
int decoded_packets(coexistence_config cfg, int trials) {
  const std::uint64_t base = cfg.seed;
  int ok = 0;
  for (int t = 0; t < trials; ++t) {
    cfg.seed = base * 7919 + static_cast<std::uint64_t>(t);
    ok += run_coexistence_trial(cfg).client_decoded ? 1 : 0;
  }
  return ok;
}

TEST(CoexistenceTest, ClientDecodesWithInactiveTag) {
  coexistence_config cfg = base_config();
  cfg.tag_active = false;
  const auto r = run_coexistence_trial(cfg);
  EXPECT_TRUE(r.client_decoded);
  EXPECT_GT(r.client_snr_db, 20.0);
}

TEST(CoexistenceTest, ClientDecodesWithTagAtModerateDistance) {
  // Paper Fig. 12b: beyond ~0.5 m tag-AP separation the impact vanishes.
  coexistence_config cfg = base_config();
  cfg.tag_active = true;
  cfg.ap_tag_distance_m = 2.0;
  const auto r = run_coexistence_trial(cfg);
  EXPECT_TRUE(r.client_decoded);
}

TEST(CoexistenceTest, VeryCloseTagDegradesSnr) {
  // Paper Fig. 13b: tag at 0.25 m measurably lowers client SNR.
  double snr_on = 0.0, snr_off = 0.0;
  const int trials = 6;
  for (int t = 0; t < trials; ++t) {
    coexistence_config cfg = base_config();
    cfg.ap_tag_distance_m = 0.25;
    cfg.seed = 100 + t;
    cfg.tag_active = true;
    snr_on += run_coexistence_trial(cfg).client_snr_db;
    cfg.tag_active = false;
    snr_off += run_coexistence_trial(cfg).client_snr_db;
  }
  EXPECT_LT(snr_on, snr_off);
}

TEST(CoexistenceTest, ImpactShrinksWithTagDistance) {
  auto evm_at = [&](double d_tag) {
    double acc = 0.0;
    const int trials = 5;
    for (int t = 0; t < trials; ++t) {
      coexistence_config cfg = base_config();
      cfg.ap_tag_distance_m = d_tag;
      cfg.seed = 200 + t;
      acc += run_coexistence_trial(cfg).client_evm_rms;
    }
    return acc / trials;
  };
  EXPECT_GT(evm_at(0.25), evm_at(4.0));
}

TEST(CoexistenceTest, ThroughputReflectsPacketSuccess) {
  coexistence_config cfg = base_config();
  cfg.tag_active = false;
  EXPECT_EQ(decoded_packets(cfg, 4), 4);  // every packet decodes at this SNR
}

TEST(CoexistenceTest, ClientDecodeAnchorAtEightMeters) {
  // Pinned since the serial client-throughput loop: 11 of 12 packets at
  // 54 Mbps reach a client 8 m from the AP.
  coexistence_config c;
  c.seed = 5;
  c.ap_client_distance_m = 8.0;
  EXPECT_EQ(decoded_packets(c, 12), 11);
}

TEST(CoexistenceTest, RejectsNonPositiveDistances) {
  // A zero or non-finite distance has no path loss: the trial must refuse
  // it instead of running on an infinite channel gain.
  for (const double d : {0.0, -1.0, std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN()}) {
    coexistence_config cfg = base_config();
    cfg.ap_client_distance_m = d;
    EXPECT_THROW(run_coexistence_trial(cfg), std::invalid_argument) << d;
  }
  coexistence_config cfg = base_config();
  cfg.ap_tag_distance_m = 0.0;
  EXPECT_THROW(run_coexistence_trial(cfg), std::invalid_argument);
}

TEST(CoexistenceTest, DistanceForClientSnrInvertsLinkBudget) {
  const channel::link_budget budget;
  for (double snr : {15.0, 25.0, 35.0}) {
    const double d = distance_for_client_snr(budget, snr);
    ASSERT_GT(d, 0.0);
    // Round-trip: a client at distance d should see roughly snr.
    const double pl = channel::log_distance_path_loss_db(
        d, budget.frequency_hz, budget.path_loss_exponent);
    const double floor = channel::noise_floor_dbm(budget.bandwidth_hz,
                                                  budget.noise_figure_db);
    EXPECT_NEAR(budget.tx_power_dbm - pl - floor, snr, 0.1) << snr;
  }
}

TEST(CoexistenceTest, WorstCaseCollinearTagClientDistance) {
  coexistence_config cfg = base_config();
  cfg.ap_client_distance_m = 5.0;
  cfg.ap_tag_distance_m = 0.25;
  cfg.tag_client_distance_m = -1.0;  // auto: |5 - 0.25| = 4.75
  // Just exercise the path; the trial must complete.
  const auto r = run_coexistence_trial(cfg);
  EXPECT_GE(r.client_snr_db, 0.0);
}

}  // namespace
}  // namespace backfi::sim
