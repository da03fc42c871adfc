// Observability contract of the sim layer: config validation at entry
// points, deterministic collector merge across thread counts, the
// null-collector bit-identity guarantee, and the link_report aliases.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "channel/awgn.h"
#include "fd/receive_chain.h"
#include "obs/collector.h"
#include "obs/export.h"
#include "reader/excitation.h"
#include "sim/backscatter_sim.h"
#include "sim/parallel.h"
#include "sim/stream_sim.h"
#include "sim/wild_traffic.h"
#include "wifi/ppdu.h"

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
    c.excitation.n_ppdus = 0;
    EXPECT_EQ(c.validate(), config_error::empty_excitation);
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

// validate() rejects a symbol rate that does not divide 20 MS/s and rate-3/4
// coding at any range. Left to the tag, the trial would throw only when the
// tag wakes (1 m) and return an error-free result when it does not (30 m).
TEST(ScenarioValidate, RejectsTagConfigsTheTagCannotRunAtAnyRange) {
  for (const double distance_m : {1.0, 30.0}) {
    scenario_config rate = cheap_scenario();
    rate.tag_distance_m = distance_m;
    rate.tag.rate.symbol_rate_hz = 3e6;
    EXPECT_EQ(rate.validate(), config_error::bad_symbol_rate) << distance_m;
    EXPECT_THROW((void)run_backscatter_trial(rate), std::invalid_argument)
        << distance_m;

    scenario_config coding = cheap_scenario();
    coding.tag_distance_m = distance_m;
    coding.tag.rate.coding = phy::code_rate::three_quarters;
    EXPECT_EQ(coding.validate(), config_error::bad_tag_config) << distance_m;
    EXPECT_THROW((void)run_backscatter_trial(coding), std::invalid_argument)
        << distance_m;
  }
  scenario_config frame = cheap_scenario();
  frame.tag.silent_us = std::numeric_limits<std::size_t>::max() / 10;
  EXPECT_EQ(frame.validate(), config_error::bad_tag_config);
  scenario_config payload = cheap_scenario();
  payload.payload_bits = tag::max_payload_bits + 1;
  EXPECT_EQ(payload.validate(), config_error::bad_tag_config);
  EXPECT_STREQ(to_string(config_error::bad_tag_config), "bad_tag_config");
}

TEST(ScenarioValidate, ErrorNamesAreStable) {
  EXPECT_STREQ(to_string(config_error::none), "none");
  EXPECT_STREQ(to_string(config_error::bad_symbol_rate), "bad_symbol_rate");
}

// --- Telemetry determinism ------------------------------------------------

std::string telemetry_json_at(std::size_t threads, double* per_out,
                              std::uint64_t* trials_out = nullptr) {
  scoped_thread_count guard(threads);
  obs::collector collector;
  scenario_config c = cheap_scenario();
  c.collector = &collector;
  const double per = packet_error_rate(c, 12);
  if (per_out) *per_out = per;
  if (trials_out)
    *trials_out = collector.registry().counter_at(obs::probe::trials).value;
  // Timings are wall-clock and exempt from the determinism contract.
  return obs::to_json(collector.registry(), {.include_timings = false});
}

TEST(TelemetryDeterminism, MergedRegistryBitIdenticalAcrossThreadCounts) {
  double per1 = 0.0, per2 = 0.0, per4 = 0.0;
  std::uint64_t trials1 = 0;
  const std::string json1 = telemetry_json_at(1, &per1, &trials1);
  const std::string json2 = telemetry_json_at(2, &per2);
  const std::string json4 = telemetry_json_at(4, &per4);
  EXPECT_EQ(per1, per2);
  EXPECT_EQ(per1, per4);
  EXPECT_EQ(json1, json2);
  EXPECT_EQ(json1, json4);
  // The merged counters describe the whole run, not one shard.
  EXPECT_EQ(trials1, 12u);
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
  EXPECT_EQ(collector.registry().counter_at(obs::probe::trials).value, 1u);
}

TEST(TelemetryDeterminism, PacketErrorRateAnchorUnchangedWithCollector) {
  scoped_thread_count threads(4);
  obs::collector collector;
  scenario_config c = cheap_scenario();
  c.collector = &collector;
  // Pre-observability serial anchor: 9 of 24 packets failed at 4.5 m.
  EXPECT_EQ(packet_error_rate(c, 24), 0.375);
}

// --- One metrics system: the catalogue is the only way in ----------------

TEST(Collector, EveryEmittedNameIsCatalogued) {
  obs::collector collector;

  // A fig08 trial past the decode range: a reader.failure.* row fires.
  scenario_config far;
  far.seed = 1;
  far.excitation.ppdu_bytes = 4000;
  far.payload_bits = 600;
  far.tag.preamble_us = 32;
  far.tag_distance_m = 8.0;
  far.tag.rate = {tag::tag_modulation::psk16, phy::code_rate::half, 2.5e6};
  far.collector = &collector;
  const reader::decode_failure failure = run_backscatter_trial(far).failure;
  ASSERT_NE(failure, reader::decode_failure::none);
  EXPECT_EQ(collector.registry()
                .get_counter(std::string("reader.failure.") +
                             reader::to_string(failure))
                .value,
            1u);

  // A 2-packet stream session with stream metrics on.
  stream_scenario_config stream;
  stream.scenario.excitation.ppdu_bytes = 2000;
  stream.scenario.payload_bits = 300;
  stream.scenario.tag.rate = {tag::tag_modulation::qpsk, phy::code_rate::half,
                              1e6};
  stream.scenario.tag_distance_m = 2.0;
  stream.scenario.seed = 1;
  stream.scenario.collector = &collector;
  stream.n_packets = 2;
  (void)run_stream_trial(stream);

  // An adaptive Monte-Carlo PER call.
  per_options options;
  options.max_trials = 16;
  options.min_trials = 8;
  options.target_ci_halfwidth = 0.3;
  const scenario_config point = cheap_scenario();
  (void)packet_error_rates(std::span(&point, 1), options, &collector);

  // A short coded link-supervisor run.
  wild_traffic_config wild;
  wild.link.excitation.ppdu_bytes = 1500;
  wild.link.collector = &collector;
  wild.coding.block_symbols = 4;
  wild.coding.symbol_bytes = 4;
  wild.coding.rs_repair_symbols = 2;
  wild.schemes = {phy::erasure_scheme::reed_solomon};
  wild.duty_cycles = {0.5};
  wild.opportunities = 12;
  wild.trials = 1;
  (void)run_wild_traffic(wild);

  std::set<std::string, std::less<>> catalogued;
  for (const obs::probe_info& pi : obs::probe_catalogue())
    catalogued.insert(pi.name);
  const obs::metrics_registry& reg = collector.registry();
  // Every exported row (`kind,name,...` after the header) is catalogued.
  std::istringstream csv(obs::to_csv(reg));
  std::string row, kind, name;
  std::getline(csv, row);
  while (std::getline(std::getline(csv, kind, ','), name, ',') &&
         std::getline(csv, row))
    EXPECT_TRUE(catalogued.contains(name)) << kind << " " << name;

  // Each source above actually reported.
  const obs::probe fired[] = {
      obs::probe::decode_failures,   obs::probe::stream_packets_in,
      obs::probe::adaptive_points,   obs::probe::coding_arms,
      obs::probe::scheduler_sweeps,  obs::probe::coding_symbols_delivered,
      obs::probe::timing_stream_cancel,
  };
  EXPECT_TRUE(obs::zero_sample_probes(reg, fired).empty());
}

// The replay caches' admission refusals are published with their other
// runtime gauges, as the caches' own cumulative counts.
TEST(Collector, ReplayCacheRefusedGaugesReadTheCacheStats) {
  obs::collector collector;
  scenario_config c = cheap_scenario();
  c.seed = 0x5EF05ED;  // a seed no other test uses: both caches miss
  c.collector = &collector;
  (void)run_backscatter_trial(c);
  const obs::metrics_registry& reg = collector.registry();
  const obs::gauge& noise = reg.gauge_at(obs::probe::noise_cache_refused);
  const obs::gauge& ex = reg.gauge_at(obs::probe::excitation_cache_refused);
  EXPECT_TRUE(noise.set);
  EXPECT_TRUE(ex.set);
  EXPECT_EQ(noise.value, static_cast<double>(channel::awgn_cache_stats().refused));
  EXPECT_EQ(ex.value,
            static_cast<double>(reader::excitation_cache_stats().refused));
}

TEST(Collector, FailureRowsFollowTheDecodeFailureEnum) {
  const auto first =
      static_cast<std::size_t>(obs::probe::failure_empty_input);
  for (std::size_t f = 1;
       f <= static_cast<std::size_t>(reader::decode_failure::crc_failed); ++f) {
    const std::string expected =
        std::string("reader.failure.") +
        reader::to_string(static_cast<reader::decode_failure>(f));
    EXPECT_EQ(obs::to_string(static_cast<obs::probe>(first + f - 1)),
              expected);
  }
}

TEST(JsonExport, NonFiniteValuesExportAsNull) {
  // Degenerate captures drive the chain's depth estimates to -inf or NaN;
  // the export must stay strict JSON.
  const cvec tx =
      wifi::random_ppdu(300, {.rate = wifi::wifi_rate::mbps24}, 1).samples;
  cvec zeros(tx.size());
  cvec huge = tx, tiny = tx, with_nan = tx;
  for (cplx& v : huge) v *= 1e160;
  for (cplx& v : tiny) v *= 1e-170;
  with_nan[tx.size() / 2] = {std::nan(""), 0.0};
  obs::collector collector;
  fd::receive_chain_config cfg;
  cfg.collector = &collector;
  fd::receive_chain_scratch scratch;
  for (const cvec* rx : {&zeros, &huge, &with_nan, &tiny})
    (void)fd::run_receive_chain(tx, *rx, 0, 320, cfg, &scratch);
  const obs::histogram& depth =
      collector.registry().histogram_at(obs::probe::analog_depth_db);
  ASSERT_EQ(depth.count, 4u);
  EXPECT_FALSE(std::isfinite(depth.sum));

  const std::string json = obs::to_json(collector.registry());
  for (const char* bare : {"inf", "nan", "NaN", "Infinity"})
    EXPECT_EQ(json.find(bare), std::string::npos) << bare << "\n" << json;
  EXPECT_NE(json.find("\"sum\": null"), std::string::npos);
}

// --- Delegated sub-config validation --------------------------------------

TEST(ScenarioValidate, DelegatesToSubConfigValidators) {
  {
    scenario_config c = cheap_scenario();
    c.chain.adc.bits = 0;
    EXPECT_EQ(c.validate(), config_error::bad_chain_config);
    EXPECT_THROW((void)run_backscatter_trial(c), std::invalid_argument);
  }
  EXPECT_STREQ(to_string(config_error::bad_chain_config), "bad_chain_config");
}

}  // namespace
}  // namespace backfi::sim
