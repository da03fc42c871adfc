#include "mac/trace.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

namespace backfi::mac {
namespace {

/// Fraction of the window the AP spends transmitting.
double busy_fraction(const ap_trace& trace) {
  if (trace.duration_us <= 0.0) return 0.0;
  double busy = 0.0;
  for (const auto& tx : trace.transmissions) busy += tx.airtime_us;
  return busy / trace.duration_us;
}

/// Realised ON fraction of a burst schedule's window.
double on_fraction(const burst_schedule& schedule) {
  if (schedule.duration_us <= 0.0) return 0.0;
  double on = 0.0;
  for (const auto& p : schedule.on_periods) on += p.airtime_us;
  return on / schedule.duration_us;
}

TEST(TraceTest, BusyFractionHitsTarget) {
  for (double target : {0.6, 0.8, 0.9}) {
    const ap_trace trace = generate_loaded_ap_trace(
        {.duration_s = 5.0, .target_busy_fraction = target, .seed = 1});
    EXPECT_NEAR(busy_fraction(trace), target, 0.06) << target;
  }
}

TEST(TraceTest, TransmissionsAreOrderedAndDisjoint) {
  const ap_trace trace = generate_loaded_ap_trace({.seed = 2});
  ASSERT_GT(trace.transmissions.size(), 10u);
  for (std::size_t i = 1; i < trace.transmissions.size(); ++i) {
    const auto& prev = trace.transmissions[i - 1];
    const auto& cur = trace.transmissions[i];
    EXPECT_GE(cur.start_us, prev.start_us + prev.airtime_us);
  }
  EXPECT_LE(trace.transmissions.back().start_us +
                trace.transmissions.back().airtime_us,
            trace.duration_us + 1e-9);
}

TEST(TraceTest, GapsIncludeDifs) {
  const ap_trace trace = generate_loaded_ap_trace({.seed = 3});
  for (std::size_t i = 1; i < trace.transmissions.size(); ++i) {
    const double gap = trace.transmissions[i].start_us -
                       (trace.transmissions[i - 1].start_us +
                        trace.transmissions[i - 1].airtime_us);
    EXPECT_GE(gap, difs_us - 1e-9);
  }
}

TEST(TraceTest, DeterministicPerSeed) {
  const ap_trace a = generate_loaded_ap_trace({.seed = 4});
  const ap_trace b = generate_loaded_ap_trace({.seed = 4});
  ASSERT_EQ(a.transmissions.size(), b.transmissions.size());
  for (std::size_t i = 0; i < a.transmissions.size(); ++i)
    EXPECT_DOUBLE_EQ(a.transmissions[i].start_us, b.transmissions[i].start_us);
}

TEST(TraceTest, ReplayThroughputBelowOptimalAndAboveHalf) {
  // Paper Fig. 12a: a loaded network still yields ~80% of the optimal
  // backscatter throughput.
  const ap_trace trace = generate_loaded_ap_trace(
      {.duration_s = 5.0, .target_busy_fraction = 0.85, .seed = 5});
  const double tput = replay_backscatter_throughput_bps(
      trace, {.optimal_throughput_bps = 5e6});
  EXPECT_LT(tput, 5e6);
  EXPECT_GT(tput, 2.5e6);
}

TEST(TraceTest, ReplayScalesWithBusyFraction) {
  const replay_config rc{.optimal_throughput_bps = 5e6};
  const double low = replay_backscatter_throughput_bps(
      generate_loaded_ap_trace({.target_busy_fraction = 0.5, .seed = 6}), rc);
  const double high = replay_backscatter_throughput_bps(
      generate_loaded_ap_trace({.target_busy_fraction = 0.9, .seed = 6}), rc);
  EXPECT_GT(high, 1.4 * low);
}

TEST(TraceTest, OverheadReducesThroughput) {
  const ap_trace trace = generate_loaded_ap_trace({.seed = 7});
  const double small_oh = replay_backscatter_throughput_bps(
      trace, {.optimal_throughput_bps = 5e6, .overhead_us = 10.0});
  const double large_oh = replay_backscatter_throughput_bps(
      trace, {.optimal_throughput_bps = 5e6, .overhead_us = 200.0});
  EXPECT_GT(small_oh, large_oh);
}

TEST(TraceTest, EmptyTraceGivesZero) {
  const ap_trace empty;
  EXPECT_DOUBLE_EQ(replay_backscatter_throughput_bps(
                       empty, {.optimal_throughput_bps = 5e6}),
                   0.0);
  EXPECT_DOUBLE_EQ(busy_fraction(empty), 0.0);
}

TEST(BurstScheduleTest, DutyMatchesConfigOverLongWindows) {
  for (double duty : {0.3, 0.5, 0.8}) {
    const burst_schedule schedule = generate_burst_schedule(
        {.duty_cycle = duty, .mean_on_us = 4000.0, .seed = 21}, 5e6);
    EXPECT_NEAR(on_fraction(schedule), duty, 0.08) << duty;
  }
}

TEST(BurstScheduleTest, FullDutyIsOneSolidOnPeriod) {
  const burst_schedule schedule =
      generate_burst_schedule({.duty_cycle = 1.0, .seed = 22}, 1e5);
  ASSERT_EQ(schedule.on_periods.size(), 1u);
  EXPECT_DOUBLE_EQ(on_fraction(schedule), 1.0);
  EXPECT_TRUE(schedule.on_at(0.0));
  EXPECT_TRUE(schedule.on_at(99999.0));
}

TEST(BurstScheduleTest, DeterministicPerSeedAndStartsOn) {
  const burst_config config{.duty_cycle = 0.6, .mean_on_us = 2000.0, .seed = 23};
  const burst_schedule a = generate_burst_schedule(config, 1e6);
  const burst_schedule b = generate_burst_schedule(config, 1e6);
  ASSERT_EQ(a.on_periods.size(), b.on_periods.size());
  for (std::size_t i = 0; i < a.on_periods.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.on_periods[i].start_us, b.on_periods[i].start_us);
    EXPECT_DOUBLE_EQ(a.on_periods[i].airtime_us, b.on_periods[i].airtime_us);
  }
  EXPECT_DOUBLE_EQ(a.on_periods.front().start_us, 0.0);
  EXPECT_TRUE(a.on_at(0.0));
}

TEST(BurstScheduleTest, OnAtTracksPeriodBoundaries) {
  burst_schedule schedule;
  schedule.duration_us = 100.0;
  schedule.on_periods = {{0.0, 10.0}, {50.0, 20.0}};
  EXPECT_TRUE(schedule.on_at(0.0));
  EXPECT_TRUE(schedule.on_at(9.9));
  EXPECT_FALSE(schedule.on_at(10.0));
  EXPECT_FALSE(schedule.on_at(49.9));
  EXPECT_TRUE(schedule.on_at(50.0));
  EXPECT_FALSE(schedule.on_at(70.0));
  EXPECT_DOUBLE_EQ(on_fraction(schedule), 0.3);
}

TEST(BurstScheduleTest, PollAvailabilitySamplesSchedule) {
  burst_schedule schedule;
  schedule.duration_us = 100.0;
  schedule.on_periods = {{0.0, 25.0}, {60.0, 30.0}};
  const auto available = poll_availability(schedule, 10, 10.0);
  const std::vector<std::uint8_t> expected = {1, 1, 1, 0, 0, 0, 1, 1, 1, 0};
  EXPECT_EQ(available, expected);
}

TEST(BurstScheduleTest, ZeroDurationIsEmpty) {
  const burst_schedule schedule =
      generate_burst_schedule({.duty_cycle = 0.5, .seed = 25}, 0.0);
  EXPECT_TRUE(schedule.on_periods.empty());
  EXPECT_DOUBLE_EQ(on_fraction(schedule), 0.0);
  EXPECT_FALSE(schedule.on_at(0.0));
}

TEST(TraceTest, RejectsOutOfRangeConfigs) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double busy : {0.0, 1.0, -0.5, 1.5, nan})
    EXPECT_THROW(generate_loaded_ap_trace({.target_busy_fraction = busy}),
                 std::invalid_argument)
        << busy;
  // min > max would wrap the uniform_int range.
  const trace_config inverted{.min_bytes = 1501, .max_bytes = 1500};
  EXPECT_THROW(generate_loaded_ap_trace(inverted), std::invalid_argument);
  EXPECT_NO_THROW(generate_loaded_ap_trace(
      {.duration_s = 0.01, .min_bytes = 700, .max_bytes = 700}));
}

TEST(BurstScheduleTest, RejectsDegenerateBurstParameters) {
  // A zero mean ON length would draw zero-length periods without bound.
  // Every degenerate value throws up front, even on the clean-air and
  // empty-window paths.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double mean_on : {0.0, -1.0, nan, inf}) {
    const burst_config bursty{.duty_cycle = 0.5, .mean_on_us = mean_on};
    const burst_config clean{.duty_cycle = 1.0, .mean_on_us = mean_on};
    EXPECT_THROW(generate_burst_schedule(bursty, 1e5), std::invalid_argument)
        << mean_on;
    EXPECT_THROW(generate_burst_schedule(clean, 0.0), std::invalid_argument)
        << mean_on;
  }
  for (const double duty : {0.0, -0.5, nan, inf})
    EXPECT_THROW(generate_burst_schedule({.duty_cycle = duty}, 1e5),
                 std::invalid_argument)
        << duty;
}

}  // namespace
}  // namespace backfi::mac
