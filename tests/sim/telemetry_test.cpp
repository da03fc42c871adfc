// Observability contract of the sim layer: config validation at entry
// points, deterministic collector merge across thread counts, the
// null-collector bit-identity guarantee, and the link_report aliases.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/collector.h"
#include "obs/export.h"
#include "sim/backscatter_sim.h"
#include "sim/parallel.h"

namespace backfi::sim {
namespace {

scenario_config cheap_scenario() {
  scenario_config c;
  c.seed = 42;
  c.tag_distance_m = 4.5;
  c.payload_bits = 400;
  return c;
}

// --- scenario_config::validate --------------------------------------------

TEST(ScenarioValidate, DefaultConfigIsUsable) {
  EXPECT_EQ(scenario_config{}.validate(), config_error::none);
  EXPECT_EQ(cheap_scenario().validate(), config_error::none);
}

TEST(ScenarioValidate, ReportsEachViolation) {
  {
    scenario_config c = cheap_scenario();
    c.payload_bits = 0;
    EXPECT_EQ(c.validate(), config_error::zero_payload);
  }
  {
    scenario_config c = cheap_scenario();
    c.tag_distance_m = -1.0;
    EXPECT_EQ(c.validate(), config_error::bad_distance);
  }
  {
    scenario_config c = cheap_scenario();
    c.tag_distance_m = std::numeric_limits<double>::infinity();
    EXPECT_EQ(c.validate(), config_error::bad_distance);
  }
  {
    scenario_config c = cheap_scenario();
    c.tag.rate.symbol_rate_hz = 0.0;
    EXPECT_EQ(c.validate(), config_error::bad_symbol_rate);
  }
  {
    scenario_config c = cheap_scenario();
    c.tag.rate.symbol_rate_hz = sample_rate_hz;  // above Nyquist
    EXPECT_EQ(c.validate(), config_error::bad_symbol_rate);
  }
  {
    scenario_config c = cheap_scenario();
    c.decoder.fb_taps = 0;
    EXPECT_EQ(c.validate(), config_error::zero_channel_taps);
  }
  {
    scenario_config c = cheap_scenario();
    c.decoder.sync_threshold = 1.5;
    EXPECT_EQ(c.validate(), config_error::bad_sync_threshold);
  }
  {
    scenario_config c = cheap_scenario();
    c.excitation.n_ppdus = 0;
    EXPECT_EQ(c.validate(), config_error::empty_excitation);
  }
  {
    scenario_config c = cheap_scenario();
    c.budget.bandwidth_hz = 0.0;
    EXPECT_EQ(c.validate(), config_error::bad_bandwidth);
  }
}

TEST(ScenarioValidate, EntryPointsThrowWithCallSiteAndReason) {
  scenario_config c = cheap_scenario();
  c.payload_bits = 0;
  try {
    (void)packet_error_rate(c, 4);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("packet_error_rate"), std::string::npos) << what;
    EXPECT_NE(what.find("zero_payload"), std::string::npos) << what;
  }
  EXPECT_THROW((void)run_backscatter_trial(c), std::invalid_argument);
}

TEST(ScenarioValidate, ErrorNamesAreStable) {
  EXPECT_STREQ(to_string(config_error::none), "none");
  EXPECT_STREQ(to_string(config_error::bad_symbol_rate), "bad_symbol_rate");
  EXPECT_STREQ(to_string(config_error::bad_bandwidth), "bad_bandwidth");
}

// --- Telemetry determinism ------------------------------------------------

std::string telemetry_json_at(std::size_t threads, double* per_out) {
  scoped_thread_count guard(threads);
  obs::collector collector;
  scenario_config c = cheap_scenario();
  c.collector = &collector;
  const double per = packet_error_rate(c, 12);
  if (per_out) *per_out = per;
  // Timings are wall-clock and exempt from the determinism contract.
  return obs::to_json(collector.registry(), {.include_timings = false});
}

TEST(TelemetryDeterminism, MergedRegistryBitIdenticalAcrossThreadCounts) {
  double per1 = 0.0, per2 = 0.0, per4 = 0.0;
  const std::string json1 = telemetry_json_at(1, &per1);
  const std::string json2 = telemetry_json_at(2, &per2);
  const std::string json4 = telemetry_json_at(4, &per4);
  EXPECT_EQ(per1, per2);
  EXPECT_EQ(per1, per4);
  EXPECT_EQ(json1, json2);
  EXPECT_EQ(json1, json4);
  // The merged counters describe the whole run, not one shard.
  auto parsed = obs::from_json(json1);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->get_counter("sim.trials").value, 12u);
}

TEST(TelemetryDeterminism, NullCollectorLeavesTrialResultBitIdentical) {
  const scenario_config plain = cheap_scenario();
  scenario_config observed = cheap_scenario();
  obs::collector collector;
  observed.collector = &collector;

  const trial_result a = run_backscatter_trial(plain);
  const trial_result b = run_backscatter_trial(observed);

  EXPECT_EQ(a.woke, b.woke);
  EXPECT_EQ(a.sync_found, b.sync_found);
  EXPECT_EQ(a.decoded, b.decoded);
  EXPECT_EQ(a.crc_ok, b.crc_ok);
  EXPECT_EQ(a.failure, b.failure);
  EXPECT_EQ(a.bit_errors, b.bit_errors);
  EXPECT_EQ(a.raw_symbol_errors, b.raw_symbol_errors);
  EXPECT_EQ(a.payload_symbols, b.payload_symbols);
  EXPECT_EQ(a.link.post_mrc_snr_db, b.link.post_mrc_snr_db);
  EXPECT_EQ(a.link.expected_snr_db, b.link.expected_snr_db);
  EXPECT_EQ(a.link.residual_si_over_noise_db, b.link.residual_si_over_noise_db);
  EXPECT_EQ(a.link.analog_depth_db, b.link.analog_depth_db);
  EXPECT_EQ(a.link.total_depth_db, b.link.total_depth_db);
  EXPECT_EQ(a.link.sync_correlation, b.link.sync_correlation);
  EXPECT_EQ(a.link.evm_rms, b.link.evm_rms);
  EXPECT_EQ(a.tag_energy_pj, b.tag_energy_pj);
  EXPECT_EQ(a.effective_throughput_bps, b.effective_throughput_bps);
  // And the attached collector actually saw the trial.
  EXPECT_EQ(collector.registry().counters().at("sim.trials").value, 1u);
}

TEST(TelemetryDeterminism, PacketErrorRateAnchorUnchangedWithCollector) {
  scoped_thread_count threads(4);
  obs::collector collector;
  scenario_config c = cheap_scenario();
  c.collector = &collector;
  // Pre-observability serial anchor: 9 of 24 packets failed at 4.5 m.
  EXPECT_EQ(packet_error_rate(c, 24), 0.375);
}

// --- Delegated sub-config validation --------------------------------------

TEST(ScenarioValidate, DelegatesToSubConfigValidators) {
  {
    scenario_config c = cheap_scenario();
    c.decoder.ridge = -1.0;  // not one of the two legacy decoder values
    EXPECT_EQ(c.validate(), config_error::bad_decoder_config);
  }
  {
    scenario_config c = cheap_scenario();
    c.chain.adc.bits = 0;
    EXPECT_EQ(c.validate(), config_error::bad_chain_config);
    EXPECT_THROW((void)run_backscatter_trial(c), std::invalid_argument);
  }
  EXPECT_STREQ(to_string(config_error::bad_decoder_config),
               "bad_decoder_config");
  EXPECT_STREQ(to_string(config_error::bad_chain_config), "bad_chain_config");
}

}  // namespace
}  // namespace backfi::sim
