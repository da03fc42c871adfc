// JSON/CSV exporters: canonical output, exact %.17g doubles, timing
// exclusion, and the zero-sample probe check.
#include "obs/export.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "obs/collector.h"

namespace backfi::obs {
namespace {

metrics_registry sample_registry() {
  collector c;
  c.count(probe::trials, 24);
  c.count(probe::decode_failures, 3);
  c.set(probe::roi_coverage, 0.5);
  // Awkward doubles on purpose: %.17g must print them exactly.
  c.observe(probe::post_mrc_snr_db, 17.299999999999997);
  c.observe(probe::post_mrc_snr_db, -3.0000000000000004);
  c.observe(probe::timing_decode, 1.25e-3);
  return c.registry();
}

TEST(JsonExport, PrintsDoublesExactly) {
  const std::string json = to_json(sample_registry());
  EXPECT_NE(json.find("\"min\": -3.0000000000000004"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"max\": 17.299999999999997"), std::string::npos)
      << json;
}

TEST(JsonExport, IncludeTimingsFalseDropsTimingMetrics) {
  const metrics_registry reg = sample_registry();
  const std::string with = to_json(reg, {.include_timings = true});
  const std::string without = to_json(reg, {.include_timings = false});
  EXPECT_NE(with.find("timing.reader.decode"), std::string::npos);
  EXPECT_EQ(without.find("timing.reader.decode"), std::string::npos);
  // The non-timing content is unaffected.
  EXPECT_NE(without.find("sim.trials"), std::string::npos);
}

TEST(CsvExport, OneRowPerMetricWithHeader) {
  const metrics_registry reg = sample_registry();
  const std::string csv = to_csv(reg);
  EXPECT_EQ(csv.find("kind,name,count,value_or_sum,mean,min,max"), 0u);
  EXPECT_NE(csv.find("counter,sim.trials,"), std::string::npos);
  EXPECT_NE(csv.find("gauge,runtime.chain.roi.coverage,"), std::string::npos);
  EXPECT_NE(csv.find("histogram,reader.post_mrc_snr_db,"), std::string::npos);
}

TEST(WriteFile, WritesAndFailsGracefully) {
  const std::string path = ::testing::TempDir() + "obs_export_test.json";
  ASSERT_TRUE(write_file(path, "{}\n"));
  FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buf[8] = {};
  const std::size_t n = std::fread(buf, 1, sizeof buf, f);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(std::string(buf, n), "{}\n");
  EXPECT_FALSE(write_file("/nonexistent-dir/x.json", "x"));
}

TEST(ZeroSampleProbes, FlagsSilentRequiredProbes) {
  collector c;  // full catalogue pre-registered at zero
  c.count(probe::trials, 5);
  c.observe(probe::post_mrc_snr_db, 12.0);
  const probe required[] = {probe::trials, probe::post_mrc_snr_db,
                            probe::decode_failures, probe::evm_rms};
  const auto silent = zero_sample_probes(c.registry(), required);
  ASSERT_EQ(silent.size(), 2u);
  EXPECT_EQ(silent[0], "reader.decode_failures");
  EXPECT_EQ(silent[1], "reader.evm_rms");
}

TEST(ZeroSampleProbes, EmptyWhenAllFired) {
  collector c;
  c.count(probe::trials);
  const probe required[] = {probe::trials};
  EXPECT_TRUE(zero_sample_probes(c.registry(), required).empty());
}

TEST(ZeroSampleProbes, GaugeCountsOnceSet) {
  collector c;
  c.set(probe::scheduler_threads, 4.0);
  c.observe(probe::timing_decode, 1e-4);
  const probe required[] = {probe::scheduler_threads, probe::timing_decode,
                            probe::scheduler_efficiency_pct};
  const auto silent = zero_sample_probes(c.registry(), required);
  ASSERT_EQ(silent.size(), 1u);
  EXPECT_EQ(silent[0], "runtime.scheduler.efficiency_pct");
}

TEST(ZeroSampleProbes, ZeroDeltaCountStaysSilent) {
  collector c;
  c.count(probe::adaptive_early_stops, 0);
  const probe required[] = {probe::adaptive_early_stops};
  EXPECT_EQ(zero_sample_probes(c.registry(), required).size(), 1u);
}

}  // namespace
}  // namespace backfi::obs
