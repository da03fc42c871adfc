#include "sim/rate_adaptation.h"

#include <gtest/gtest.h>

#include <string>

#include "obs/collector.h"
#include "obs/export.h"
#include "sim/parallel.h"

namespace backfi::sim {
namespace {

scenario_config fast_base() {
  scenario_config cfg;
  cfg.excitation.ppdu_bytes = 2000;
  cfg.payload_bits = 300;
  cfg.seed = 1;
  return cfg;
}

TEST(RateAdaptationTest, ThirtySixOperatingPointsSortedByThroughput) {
  const auto points = all_operating_points();
  ASSERT_EQ(points.size(), 36u);
  for (std::size_t i = 1; i < points.size(); ++i)
    EXPECT_GE(points[i].throughput_bps, points[i - 1].throughput_bps);
  // Extremes match Fig. 7: 5 Kbps .. 6.67 Mbps.
  EXPECT_NEAR(points.front().throughput_bps, 5e3, 1.0);
  EXPECT_NEAR(points.back().throughput_bps, 6.67e6, 1e4);
}

TEST(RateAdaptationTest, RepbValuesComeFromEnergyModel) {
  for (const auto& p : all_operating_points())
    EXPECT_DOUBLE_EQ(p.repb, tag::relative_energy_per_bit(p.rate));
}

TEST(RateAdaptationTest, ScenarioForPointScalesSyncAndBurst) {
  const auto base = fast_base();
  const auto slow = scenario_for_point(
      base, {tag::tag_modulation::bpsk, phy::code_rate::half, 1e4}, 3.0);
  const auto fast = scenario_for_point(
      base, {tag::tag_modulation::psk16, phy::code_rate::two_thirds, 2.5e6}, 3.0);
  EXPECT_LT(slow.tag.sync_symbols, fast.tag.sync_symbols);
  EXPECT_GT(slow.excitation.n_ppdus, fast.excitation.n_ppdus);
  EXPECT_LT(slow.payload_bits, fast.payload_bits);
  EXPECT_DOUBLE_EQ(slow.tag_distance_m, 3.0);
}

TEST(RateAdaptationTest, ScenarioFitsWithinBurst) {
  const auto base = fast_base();
  for (const auto& point : all_operating_points()) {
    const auto cfg = scenario_for_point(base, point.rate, 2.0);
    const tag::tag_device device(cfg.tag);
    const std::size_t sps = device.samples_per_symbol();
    const std::size_t need =
        320 + cfg.tag.silent_us * 20 + cfg.tag.preamble_us * 20 +
        cfg.tag.sync_symbols * sps +
        device.payload_symbols(cfg.payload_bits) * sps;
    EXPECT_LE(need, reader::excitation_length(cfg.excitation) + 0u)
        << tag::modulation_name(point.rate.modulation) << " @ "
        << point.rate.symbol_rate_hz;
  }
}

TEST(RateAdaptationTest, MaxGoodputPicksBestUsable) {
  std::vector<link_evaluation> evals;
  link_evaluation a;
  a.point.throughput_bps = 1e6;
  a.packet_error_rate = 0.0;
  a.goodput_bps = 1e6;
  a.usable = true;
  link_evaluation b;
  b.point.throughput_bps = 4e6;
  b.packet_error_rate = 0.5;
  b.goodput_bps = 2e6;
  b.usable = true;
  link_evaluation c;
  c.point.throughput_bps = 6e6;
  c.packet_error_rate = 1.0;
  c.goodput_bps = 0.0;
  c.usable = false;
  evals = {a, b, c};
  const auto best = max_goodput_point(evals);
  ASSERT_TRUE(best.has_value());
  EXPECT_DOUBLE_EQ(best->goodput_bps, 2e6);
}

TEST(RateAdaptationTest, MinRepbRespectsThroughputTarget) {
  std::vector<link_evaluation> evals;
  link_evaluation cheap;
  cheap.point.throughput_bps = 0.5e6;
  cheap.point.repb = 0.7;
  cheap.usable = true;
  link_evaluation fast;
  fast.point.throughput_bps = 2e6;
  fast.point.repb = 1.2;
  fast.usable = true;
  link_evaluation fastest;
  fastest.point.throughput_bps = 5e6;
  fastest.point.repb = 2.5;
  fastest.usable = true;
  evals = {cheap, fast, fastest};

  const auto for_1m = min_repb_point_for_throughput(evals, 1e6);
  ASSERT_TRUE(for_1m.has_value());
  EXPECT_DOUBLE_EQ(for_1m->repb, 1.2);

  const auto for_3m = min_repb_point_for_throughput(evals, 3e6);
  ASSERT_TRUE(for_3m.has_value());
  EXPECT_DOUBLE_EQ(for_3m->repb, 2.5);

  EXPECT_FALSE(min_repb_point_for_throughput(evals, 10e6).has_value());
}

TEST(RateAdaptationTest, FindMaxGoodputAtCloseRangeIsMultiMbps) {
  // Integration: at 1 m the link sustains multiple Mbps (paper: 5 Mbps).
  auto base = fast_base();
  base.seed = 77;
  const auto best = find_max_goodput(base, 1.0, 2);
  ASSERT_TRUE(best.has_value());
  EXPECT_GE(best->goodput_bps, 2e6);
}

TEST(RateAdaptationTest, FindMaxGoodputThreadInvariant) {
  // The descending walk examines one point at a time, so the chosen point,
  // the examined set and the merged deterministic telemetry must not move
  // with the thread count — with and without a CI target.
  auto base = fast_base();
  base.seed = 77;
  const int trials = 16;
  for (const double target : {0.0, 0.3}) {
    const per_options options{.max_trials = trials,
                              .target_ci_halfwidth = target};
    std::optional<link_evaluation> reference;
    std::string reference_json;
    std::uint64_t reference_trials = 0;
    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
      scoped_thread_count guard(threads);
      obs::collector collector;
      base.collector = &collector;
      const auto best = find_max_goodput(base, 1.0, options);
      ASSERT_TRUE(best.has_value()) << "target=" << target;
      const obs::metrics_registry& reg = collector.registry();
      // One engine call per examined point: one sweep each without a
      // target, one sim.adaptive.points count each with one.
      const std::uint64_t examined =
          target > 0.0 ? reg.counter_at(obs::probe::adaptive_points).value
                       : reg.counter_at(obs::probe::scheduler_sweeps).value;
      const std::uint64_t trials_run =
          reg.counter_at(obs::probe::trials).value;
      EXPECT_GE(examined, 1u);
      EXPECT_EQ(trials_run, examined * trials) << "threads=" << threads;
      const std::string json =
          obs::to_json(collector.registry(), {.include_timings = false});
      if (!reference) {
        reference = best;
        reference_json = json;
        reference_trials = trials_run;
        continue;
      }
      EXPECT_EQ(best->point.throughput_bps, reference->point.throughput_bps)
          << "threads=" << threads << " target=" << target;
      EXPECT_EQ(best->point.repb, reference->point.repb);
      EXPECT_EQ(best->packet_error_rate, reference->packet_error_rate);
      EXPECT_EQ(best->goodput_bps, reference->goodput_bps);
      EXPECT_EQ(trials_run, reference_trials) << "threads=" << threads;
      EXPECT_EQ(json, reference_json)
          << "threads=" << threads << " target=" << target;
    }
  }
}

TEST(RateAdaptationTest, NothingDecodesAbsurdlyFar) {
  auto base = fast_base();
  base.seed = 88;
  const auto best = find_max_goodput(base, 80.0, 1);
  EXPECT_FALSE(best.has_value());
}

}  // namespace
}  // namespace backfi::sim
