// Bit-identity guard for the trial hot path's reusable workspace: pinned
// pre-change trial_result literals for fixed seeds and thread-count
// independence (tests/alloc counts the workspace's allocations). Every
// double below was captured from the allocating implementation before the
// workspace/windowed-estimation restructure; EXPECT_EQ (not NEAR) is the
// point.
#include "sim/backscatter_sim.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "obs/export.h"
#include "sim/parallel.h"

namespace backfi::sim {
namespace {

scenario_config fig08_mid(std::uint64_t seed) {
  // The fig08 single-link mid-range scenario (the point bench/e2e's
  // trial_fresh workload times).
  scenario_config cfg;
  cfg.seed = seed;
  cfg.excitation.ppdu_bytes = 4000;
  cfg.payload_bits = 600;
  cfg.tag.preamble_us = 32;
  cfg.tag_distance_m = 2.0;
  cfg.tag.rate = {tag::tag_modulation::psk16, phy::code_rate::half, 2.5e6};
  return cfg;
}

scenario_config default_at_range(std::uint64_t seed) {
  scenario_config cfg;
  cfg.seed = seed;
  cfg.tag_distance_m = 4.5;
  cfg.payload_bits = 400;
  return cfg;
}

struct pinned_link {
  std::uint64_t seed;
  std::size_t raw_symbol_errors;
  double post_mrc, expected, resid, adep, tdep, sync_corr, evm;
};

void expect_clean_decode(const trial_result& r, const pinned_link& p) {
  EXPECT_TRUE(r.woke) << "seed " << p.seed;
  EXPECT_TRUE(r.sync_found) << "seed " << p.seed;
  EXPECT_TRUE(r.decoded) << "seed " << p.seed;
  EXPECT_TRUE(r.crc_ok) << "seed " << p.seed;
  EXPECT_EQ(r.failure, reader::decode_failure::none) << "seed " << p.seed;
  EXPECT_FALSE(r.cancellation_bypassed) << "seed " << p.seed;
  EXPECT_EQ(r.bit_errors, 0u) << "seed " << p.seed;
  EXPECT_EQ(r.raw_symbol_errors, p.raw_symbol_errors) << "seed " << p.seed;
  EXPECT_EQ(r.link.post_mrc_snr_db, p.post_mrc) << "seed " << p.seed;
  EXPECT_EQ(r.link.expected_snr_db, p.expected) << "seed " << p.seed;
  EXPECT_EQ(r.link.residual_si_over_noise_db, p.resid) << "seed " << p.seed;
  EXPECT_EQ(r.link.analog_depth_db, p.adep) << "seed " << p.seed;
  EXPECT_EQ(r.link.total_depth_db, p.tdep) << "seed " << p.seed;
  EXPECT_EQ(r.link.sync_correlation, p.sync_corr) << "seed " << p.seed;
  EXPECT_EQ(r.link.evm_rms, p.evm) << "seed " << p.seed;
}

TEST(TrialWorkspaceTest, PinnedFig08MidTrialLiterals) {
  const pinned_link pins[] = {
      {1, 18, 21.071311474992132, 20.249775125496146, 1.0095487875450153,
       38.101940753924055, 93.657531583178582, 0.99611578938472778,
       0.13959279789580115},
      {2, 8, 20.287453834123355, 22.614753874231202, 1.5509648657818129,
       35.245453458967411, 93.344524506649563, 0.99535282504227462,
       0.11590022933265229},
      {3, 25, 17.136920025798169, 19.506378145520838, 0.9441169823906953,
       37.475019432824354, 94.132720808162674, 0.9904712520873763,
       0.15076393248718464},
      {7, 5, 22.142199558974426, 23.265495190160166, 1.5023054899817103,
       37.085644212667773, 93.642668255898954, 0.99696074852992023,
       0.1071522626670624},
  };
  for (const pinned_link& p : pins) {
    const trial_result r = run_backscatter_trial(fig08_mid(p.seed));
    expect_clean_decode(r, p);
    EXPECT_EQ(r.payload_symbols, 319u) << "seed " << p.seed;
    EXPECT_EQ(r.tag_energy_pj, 4891.1766119999993) << "seed " << p.seed;
    EXPECT_EQ(r.effective_throughput_bps, 3296703.2967032972)
        << "seed " << p.seed;
  }
}

TEST(TrialWorkspaceTest, PinnedDefaultScenarioLiterals) {
  {
    const trial_result r = run_backscatter_trial(default_at_range(42));
    const pinned_link p{42, 93, 3.9104325786743841, 5.7709038707118046,
                        1.740848297567966, 36.684523960459032,
                        93.206585973006753, 0.84322821808562354,
                        0.62168380913339494};
    expect_clean_decode(r, p);
    EXPECT_EQ(r.payload_symbols, 438u);
    EXPECT_EQ(r.tag_energy_pj, 1777.8171599999998);
    EXPECT_EQ(r.effective_throughput_bps, 796812.74900398415);
  }
  {
    // Seed 43 fails its CRC at this range; failure literals are pinned too.
    const trial_result r = run_backscatter_trial(default_at_range(43));
    EXPECT_TRUE(r.woke);
    EXPECT_TRUE(r.sync_found);
    EXPECT_TRUE(r.decoded);
    EXPECT_FALSE(r.crc_ok);
    EXPECT_EQ(r.failure, reader::decode_failure::crc_failed);
    EXPECT_EQ(r.bit_errors, 25u);
    EXPECT_EQ(r.raw_symbol_errors, 87u);
    EXPECT_EQ(r.payload_symbols, 438u);
    EXPECT_EQ(r.link.post_mrc_snr_db, 4.2886973182057648);
    EXPECT_EQ(r.link.expected_snr_db, 4.3790799909669671);
    EXPECT_EQ(r.link.residual_si_over_noise_db, 0.82210410339547801);
    EXPECT_EQ(r.link.analog_depth_db, 38.89345281431553);
    EXPECT_EQ(r.link.total_depth_db, 94.033369223440388);
    EXPECT_EQ(r.link.sync_correlation, 0.85357813507461267);
    EXPECT_EQ(r.link.evm_rms, 0.6305160061262769);
    EXPECT_EQ(r.tag_energy_pj, 1777.8171599999998);
    EXPECT_EQ(r.effective_throughput_bps, 0.0);
  }
}

TEST(TrialWorkspaceTest, ExplicitWorkspaceMatchesThreadLocalPath) {
  const trial_result plain = run_backscatter_trial(fig08_mid(7));

  // A workspace warmed on a *different* scenario must produce identical
  // results: no decode state may leak across trials through the buffers.
  trial_workspace ws;
  run_backscatter_trial(default_at_range(42), ws);
  const trial_result reused = run_backscatter_trial(fig08_mid(7), ws);

  EXPECT_EQ(reused.crc_ok, plain.crc_ok);
  EXPECT_EQ(reused.bit_errors, plain.bit_errors);
  EXPECT_EQ(reused.raw_symbol_errors, plain.raw_symbol_errors);
  EXPECT_EQ(reused.link.post_mrc_snr_db, plain.link.post_mrc_snr_db);
  EXPECT_EQ(reused.link.expected_snr_db, plain.link.expected_snr_db);
  EXPECT_EQ(reused.link.sync_correlation, plain.link.sync_correlation);
  EXPECT_EQ(reused.link.evm_rms, plain.link.evm_rms);
  EXPECT_EQ(reused.link.analog_depth_db, plain.link.analog_depth_db);
  EXPECT_EQ(reused.link.total_depth_db, plain.link.total_depth_db);
  EXPECT_EQ(reused.tag_energy_pj, plain.tag_energy_pj);
  EXPECT_EQ(reused.effective_throughput_bps, plain.effective_throughput_bps);
}

TEST(TrialWorkspaceTest, PacketErrorRateIndependentOfThreadCount) {
  const scenario_config cfg = default_at_range(100);
  double per[3] = {0.0, 0.0, 0.0};
  {
    scoped_thread_count one(1);
    per[0] = packet_error_rate(cfg, 12);
  }
  {
    scoped_thread_count two(2);
    per[1] = packet_error_rate(cfg, 12);
  }
  {
    scoped_thread_count four(4);
    per[2] = packet_error_rate(cfg, 12);
  }
  EXPECT_EQ(per[0], per[1]);
  EXPECT_EQ(per[0], per[2]);
}

TEST(TrialWorkspaceTest, CollectorDoesNotPerturbTrialResults) {
  const trial_result plain = run_backscatter_trial(fig08_mid(2));
  obs::collector root;
  scenario_config cfg = fig08_mid(2);
  cfg.collector = &root;
  const trial_result observed = run_backscatter_trial(cfg);
  EXPECT_EQ(observed.crc_ok, plain.crc_ok);
  EXPECT_EQ(observed.raw_symbol_errors, plain.raw_symbol_errors);
  EXPECT_EQ(observed.link.post_mrc_snr_db, plain.link.post_mrc_snr_db);
  EXPECT_EQ(observed.link.sync_correlation, plain.link.sync_correlation);
  EXPECT_EQ(observed.link.evm_rms, plain.link.evm_rms);
  EXPECT_EQ(observed.tag_energy_pj, plain.tag_energy_pj);
}

TEST(TrialWorkspaceTest, PinnedTelemetryExportDigest) {
  // The merged no-timings export of three fig08 trials, byte for byte: the
  // restructure must not move, rename or renumber any exported metric.
  obs::collector root;
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    scenario_config cfg = fig08_mid(seed);
    cfg.collector = &root;
    run_backscatter_trial(cfg);
  }
  const std::string json = obs::to_json(
      root.registry(), {.include_timings = false});
  EXPECT_EQ(json.size(), 4980u);
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : json) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  EXPECT_EQ(h, 0xa9daddd76c007923ULL);
}

}  // namespace
}  // namespace backfi::sim
