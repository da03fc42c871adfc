// Pins the flattened (point, trial) -> seed mapping the sweep scheduler
// relies on. Every Monte-Carlo evaluator derives per-trial seeds through
// sim/scheduler.h's derive_trial_seed; if the formula (or the flattening
// order) drifts, every pinned PER and
// throughput anchor in the repo silently changes. This file fails first,
// with a message that names the actual contract.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/backscatter_sim.h"
#include "sim/parallel.h"
#include "sim/rate_adaptation.h"
#include "sim/scheduler.h"

namespace backfi::sim {
namespace {

scenario_config anchor_scenario(double distance_m) {
  scenario_config c;
  c.seed = 42;
  c.tag_distance_m = distance_m;
  c.payload_bits = 400;
  return c;
}

TEST(SeedStabilityTest, DerivationFormulasArePinned) {
  // The PR 2 formula verbatim: base * 1000003 + t.
  EXPECT_EQ(derive_trial_seed(0, 0), 0u);
  EXPECT_EQ(derive_trial_seed(1, 0), 1000003u);
  EXPECT_EQ(derive_trial_seed(42, 0), 42000126u);
  EXPECT_EQ(derive_trial_seed(42, 23), 42000149u);
  // constexpr: usable as compile-time constants.
  static_assert(derive_trial_seed(42, 23) == 42ULL * 1000003ULL + 23ULL);
}

TEST(SeedStabilityTest, FlattenedSeedOrderIsThreadCountInvariant) {
  // The scheduler maps flattened index -> seed identically at any thread
  // count: slot i always receives derive_trial_seed(base, i), regardless
  // of which lane ran it or in what order.
  const std::uint64_t base = 42;
  const std::size_t n = 257;
  std::vector<std::uint64_t> reference(n);
  for (std::size_t i = 0; i < n; ++i) reference[i] = derive_trial_seed(base, i);
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    scoped_thread_count guard(threads);
    std::vector<std::uint64_t> observed(n, 0);
    sweep_for(n, [&](std::size_t i) {
      observed[i] = derive_trial_seed(base, i);
    });
    EXPECT_EQ(observed, reference) << "threads=" << threads;
  }
}

TEST(SeedStabilityTest, FlatteningPreservesPerPointResults) {
  // evaluate_link flattens the (point x trial) grid to one pool with
  // index i = point * trials + trial; each point's PER must equal the
  // standalone packet_error_rate of that point's scenario — i.e. the
  // flattening changed the schedule, never the per-point seed streams.
  scoped_thread_count threads(4);
  scenario_config base;
  base.seed = 7;
  base.payload_bits = 200;
  const double distance_m = 1.0;
  const int trials = 2;
  const auto evals = evaluate_link(base, distance_m, trials);
  const auto points = all_operating_points();
  ASSERT_EQ(evals.size(), points.size());
  for (std::size_t p = 0; p < points.size(); p += 7) {  // sampled: cost
    const scenario_config config =
        scenario_for_point(base, points[p].rate, distance_m);
    EXPECT_EQ(evals[p].packet_error_rate, packet_error_rate(config, trials))
        << "point " << p;
  }
}

TEST(SeedStabilityTest, PinnedAnchorsHoldAtEightThreads) {
  // The PR 4 pinned literals re-checked beyond the usual 1/2/4 sweep: a
  // scheduler that mis-partitions lanes at higher thread counts would
  // surface here first.
  scoped_thread_count threads(8);
  EXPECT_EQ(packet_error_rate(anchor_scenario(4.5), 24), 0.375);
  EXPECT_EQ(packet_error_rate(anchor_scenario(4.0), 24), 2.0 / 24.0);
}

}  // namespace
}  // namespace backfi::sim
