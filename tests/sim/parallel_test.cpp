#include "sim/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "sim/backscatter_sim.h"
#include "sim/scheduler.h"

namespace backfi::sim {
namespace {

// The flattened trial loops run on sweep_for: these cases pin the loop
// semantics they rely on.

TEST(ParallelForTest, RunsEveryIndexExactlyOnce) {
  scoped_thread_count threads(4);
  const std::size_t n = 1000;
  // Disjoint slots: each index touches only its own element.
  std::vector<int> counts(n, 0);
  sweep_for(n, [&](std::size_t i) { ++counts[i]; });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(counts[i], 1) << "i=" << i;
}

TEST(ParallelForTest, ZeroIterationsIsNoOp) {
  scoped_thread_count threads(4);
  bool ran = false;
  sweep_for(0, [&](std::size_t) { ran = true; });
  sweep_for_ranges(0, [&](std::size_t, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ParallelForTest, SingleThreadRunsSeriallyInIndexOrder) {
  scoped_thread_count threads(1);
  std::vector<std::size_t> order;
  sweep_for(64, [&](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 64u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ParallelForTest, NestedCallsCompleteWithoutDeadlock) {
  scoped_thread_count threads(4);
  const std::size_t outer = 8, inner = 16;
  std::vector<int> counts(outer * inner, 0);
  sweep_for(outer, [&](std::size_t i) {
    // Inside a worker this inner loop runs serially on the same thread, so
    // writing counts[i * inner + j] from it is race-free.
    sweep_for(inner, [&](std::size_t j) { ++counts[i * inner + j]; });
  });
  for (std::size_t k = 0; k < counts.size(); ++k)
    EXPECT_EQ(counts[k], 1) << "k=" << k;
}

TEST(ParallelForTest, PropagatesExceptionFromWorker) {
  scoped_thread_count threads(4);
  std::atomic<int> completed{0};
  EXPECT_THROW(
      sweep_for(100,
                [&](std::size_t i) {
                  if (i == 3) throw std::runtime_error("trial failed");
                  completed.fetch_add(1, std::memory_order_relaxed);
                }),
      std::runtime_error);
  // After the throw the remaining indices are abandoned, not run.
  EXPECT_LT(completed.load(), 100);
}

TEST(ParallelForTest, ScopedThreadCountOverridesAndRestores) {
  const std::size_t ambient = thread_count();
  {
    scoped_thread_count outer(3);
    EXPECT_EQ(thread_count(), 3u);
    {
      scoped_thread_count inner(7);
      EXPECT_EQ(thread_count(), 7u);
    }
    EXPECT_EQ(thread_count(), 3u);
  }
  EXPECT_EQ(thread_count(), ambient);
}

// --- Determinism anchors -------------------------------------------------
//
// The Monte-Carlo evaluators derive each trial's RNG stream from (base
// seed, trial index), so their results must be bit-identical at any thread
// count AND equal to the pre-parallelization serial outputs. The literals
// below were captured from the serial implementation before the trial
// loops were parallelized; a change in any of them is a regression, not
// noise.

scenario_config anchor_scenario(double distance_m) {
  scenario_config c;
  c.seed = 42;
  c.tag_distance_m = distance_m;
  c.payload_bits = 400;
  return c;
}

TEST(ParallelDeterminismTest, PacketErrorRateBitIdenticalAcrossThreadCounts) {
  const scenario_config c = anchor_scenario(4.5);
  double per1, per2, per4;
  {
    scoped_thread_count threads(1);
    per1 = packet_error_rate(c, 24);
  }
  {
    scoped_thread_count threads(2);
    per2 = packet_error_rate(c, 24);
  }
  {
    scoped_thread_count threads(4);
    per4 = packet_error_rate(c, 24);
  }
  EXPECT_EQ(per1, per2);
  EXPECT_EQ(per1, per4);
  // Pre-change serial output (9 of 24 packets failed at 4.5 m).
  EXPECT_EQ(per1, 0.375);
}

TEST(ParallelDeterminismTest, PacketErrorRateMatchesPreChangeSerialAnchor) {
  scoped_thread_count threads(4);
  const double per = packet_error_rate(anchor_scenario(4.0), 24);
  // Pre-change serial output: exactly 2 of 24 packets failed at 4.0 m.
  EXPECT_EQ(per, 2.0 / 24.0);
}

}  // namespace
}  // namespace backfi::sim
