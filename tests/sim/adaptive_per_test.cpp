#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "obs/collector.h"
#include "obs/export.h"
#include "sim/backscatter_sim.h"
#include "sim/parallel.h"
#include "sim/rate_adaptation.h"

namespace backfi::sim {
namespace {

scenario_config anchor_scenario(double distance_m) {
  scenario_config c;
  c.seed = 42;
  c.tag_distance_m = distance_m;
  c.payload_bits = 400;
  return c;
}

TEST(AdaptivePerTest, WilsonHalfwidthMatchesClosedForm) {
  const double z = 1.959963984540054;
  // Degenerate inputs.
  EXPECT_EQ(wilson_halfwidth(0, 0, z), 1.0);
  EXPECT_EQ(wilson_halfwidth(5, -1, z), 1.0);
  // Closed form: (z / (1 + z^2/n)) * sqrt(p(1-p)/n + z^2/(4n^2)).
  for (const auto& [failures, trials] : {std::pair{0, 16}, {3, 16}, {8, 16},
                                         {0, 100}, {50, 100}, {100, 100}}) {
    const double n = trials, p = static_cast<double>(failures) / n;
    const double expected = (z / (1.0 + z * z / n)) *
                            std::sqrt(p * (1.0 - p) / n +
                                      z * z / (4.0 * n * n));
    EXPECT_DOUBLE_EQ(wilson_halfwidth(failures, trials, z), expected)
        << failures << "/" << trials;
  }
  // Symmetric in failures vs successes, shrinks with more evidence.
  EXPECT_DOUBLE_EQ(wilson_halfwidth(3, 16, z), wilson_halfwidth(13, 16, z));
  EXPECT_LT(wilson_halfwidth(0, 32, z), wilson_halfwidth(0, 16, z));
  EXPECT_LT(wilson_halfwidth(8, 16, z), 0.25);
}

TEST(AdaptivePerTest, FixedTargetRunsExactlyMaxTrialsAndMatchesFixedApi) {
  // target_ci_halfwidth == 0 (the default) disables early stopping: the
  // adaptive API must reproduce the fixed API bit for bit.
  scoped_thread_count threads(4);
  const scenario_config c = anchor_scenario(4.5);
  per_options options;
  options.max_trials = 24;
  const per_estimate e = packet_error_rate(c, options);
  EXPECT_EQ(e.trials_run, 24);
  EXPECT_FALSE(e.early_stopped);
  EXPECT_EQ(e.per, packet_error_rate(c, 24));
  EXPECT_EQ(e.per, 0.375);  // the PR 2 pinned anchor
  EXPECT_EQ(e.failures, 9);
}

TEST(AdaptivePerTest, ZeroMaxTrialsReturnsEmptyEstimate) {
  const per_estimate e =
      packet_error_rate(anchor_scenario(2.0), per_options{});
  EXPECT_EQ(e.trials_run, 0);
  EXPECT_EQ(e.per, 0.0);
  EXPECT_FALSE(e.early_stopped);
}

TEST(AdaptivePerTest, EarlyStopsOnConfidentPointAtBatchBoundary) {
  // 0.5 m decodes every packet: the Wilson half-width at 0/16 is ~0.097,
  // under the 0.15 target, so the point must stop at the first batch
  // boundary past min_trials instead of burning all 64 trials.
  scoped_thread_count threads(4);
  per_options options;
  options.max_trials = 64;
  options.target_ci_halfwidth = 0.15;
  const per_estimate e = packet_error_rate(anchor_scenario(0.5), options);
  EXPECT_TRUE(e.early_stopped);
  EXPECT_EQ(e.trials_run, 16);  // min_trials=16, batch=8: stops right there
  EXPECT_GE(e.trials_run, options.min_trials);
  EXPECT_LE(e.ci_halfwidth, options.target_ci_halfwidth);
  EXPECT_EQ(e.per, 0.0);
}

TEST(AdaptivePerTest, NeverStopsBeforeMinTrials) {
  scoped_thread_count threads(2);
  per_options options;
  options.max_trials = 40;
  options.target_ci_halfwidth = 0.9;  // trivially satisfied immediately
  options.min_trials = 24;
  const per_estimate e = packet_error_rate(anchor_scenario(0.5), options);
  EXPECT_GE(e.trials_run, 24);
  EXPECT_LE(e.trials_run, 40);
}

TEST(AdaptivePerTest, EstimatesAndTelemetryIdenticalAcrossThreadCounts) {
  // The stopping rule replays deterministic outcome prefixes at fixed
  // batch boundaries, so the estimates AND the merged deterministic
  // telemetry (trial probes + sim.adaptive.* + sim.scheduler.*) must be
  // byte-identical at any thread count.
  per_options options;
  options.max_trials = 32;
  options.target_ci_halfwidth = 0.2;
  const std::vector<scenario_config> configs = {anchor_scenario(0.5),
                                                anchor_scenario(4.5)};
  std::vector<per_estimate> reference;
  std::string reference_json;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    scoped_thread_count guard(threads);
    obs::collector collector;
    const std::vector<per_estimate> estimates = packet_error_rates(
        std::span(configs.data(), configs.size()), options, &collector);
    const std::string json = obs::to_json(
        collector.registry(), {.include_timings = false});
    if (reference.empty()) {
      reference = estimates;
      reference_json = json;
      continue;
    }
    ASSERT_EQ(estimates.size(), reference.size());
    for (std::size_t i = 0; i < estimates.size(); ++i) {
      EXPECT_EQ(estimates[i].per, reference[i].per) << "threads=" << threads;
      EXPECT_EQ(estimates[i].trials_run, reference[i].trials_run)
          << "threads=" << threads;
      EXPECT_EQ(estimates[i].failures, reference[i].failures);
      EXPECT_EQ(estimates[i].early_stopped, reference[i].early_stopped);
    }
    EXPECT_EQ(json, reference_json) << "threads=" << threads;
  }
}

TEST(AdaptivePerTest, ExportsAdaptiveCounters) {
  scoped_thread_count threads(4);
  per_options options;
  options.max_trials = 32;
  options.target_ci_halfwidth = 0.15;
  const std::vector<scenario_config> configs = {anchor_scenario(0.5),
                                                anchor_scenario(0.5)};
  obs::collector collector;
  const auto estimates = packet_error_rates(
      std::span(configs.data(), configs.size()), options, &collector);
  const obs::metrics_registry& reg = collector.registry();
  EXPECT_EQ(reg.counter_at(obs::probe::adaptive_points).value, 2u);
  std::uint64_t run = 0, saved = 0, stops = 0;
  for (const per_estimate& e : estimates) {
    run += static_cast<std::uint64_t>(e.trials_run);
    saved += static_cast<std::uint64_t>(options.max_trials - e.trials_run);
    stops += e.early_stopped ? 1 : 0;
  }
  EXPECT_EQ(reg.counter_at(obs::probe::adaptive_trials_run).value, run);
  EXPECT_EQ(reg.counter_at(obs::probe::adaptive_trials_saved).value, saved);
  EXPECT_EQ(reg.counter_at(obs::probe::adaptive_early_stops).value, stops);
  EXPECT_GT(saved, 0u);  // both easy points must have stopped early
}

TEST(AdaptivePerTest, NoTargetIsOneSweepWithoutAdaptiveCounters) {
  // Without a CI target every point's whole budget runs as one flattened
  // sweep, and the sim.adaptive.* counters stay out of the export.
  scoped_thread_count threads(4);
  per_options options;
  options.max_trials = 12;
  const std::vector<scenario_config> configs = {anchor_scenario(0.5),
                                                anchor_scenario(4.5)};
  obs::collector collector;
  const auto estimates = packet_error_rates(
      std::span(configs.data(), configs.size()), options, &collector);
  for (const per_estimate& e : estimates) EXPECT_EQ(e.trials_run, 12);
  const obs::metrics_registry& reg = collector.registry();
  EXPECT_EQ(reg.counter_at(obs::probe::scheduler_sweeps).value, 1u);
  EXPECT_EQ(reg.counter_at(obs::probe::scheduler_tasks).value, 24u);
  EXPECT_EQ(reg.counter_at(obs::probe::trials).value, 24u);
  EXPECT_EQ(reg.counter_at(obs::probe::adaptive_points).value, 0u);
}

TEST(AdaptivePerTest, EvaluateLinkAdaptiveMatchesFixedWithoutTarget) {
  // With the CI rule disabled the adaptive evaluate_link must agree with
  // the fixed-trials one on every operating point.
  scoped_thread_count threads(4);
  scenario_config base;
  base.seed = 7;
  base.payload_bits = 200;
  const int trials = 2;
  const auto fixed = evaluate_link(base, 1.0, trials);
  per_options options;
  options.max_trials = trials;
  const auto adaptive = evaluate_link(base, 1.0, options);
  ASSERT_EQ(adaptive.size(), fixed.size());
  for (std::size_t i = 0; i < fixed.size(); ++i) {
    EXPECT_EQ(adaptive[i].packet_error_rate, fixed[i].packet_error_rate)
        << "point " << i;
    EXPECT_EQ(adaptive[i].goodput_bps, fixed[i].goodput_bps);
    EXPECT_EQ(adaptive[i].usable, fixed[i].usable);
  }
}

}  // namespace
}  // namespace backfi::sim
