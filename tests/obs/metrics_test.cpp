// Unit semantics of the observability primitives: counters, gauges,
// histograms, and the slot store with its catalogue layout, typed reads
// and merge behaviour.
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "obs/collector.h"

namespace backfi::obs {
namespace {

TEST(Histogram, AccumulatesMoments) {
  histogram h;
  h.lo = 0.0;
  h.hi = 10.0;
  for (const double v : {1.0, 2.0, 3.0, 4.0}) h.observe(v);
  EXPECT_EQ(h.count, 4u);
  EXPECT_DOUBLE_EQ(h.sum, 10.0);
  EXPECT_DOUBLE_EQ(h.sum_sq, 1.0 + 4.0 + 9.0 + 16.0);
  EXPECT_DOUBLE_EQ(h.min_value, 1.0);
  EXPECT_DOUBLE_EQ(h.max_value, 4.0);
  EXPECT_DOUBLE_EQ(h.mean(), 2.5);
}

TEST(Histogram, OutOfRangeValuesClampToEdgeBins) {
  histogram h;
  h.lo = 0.0;
  h.hi = 1.0;
  h.observe(-5.0);
  h.observe(5.0);
  EXPECT_EQ(h.bins.front(), 1u);
  EXPECT_EQ(h.bins.back(), 1u);
  EXPECT_EQ(h.count, 2u);
}

TEST(Histogram, MergeAddsBinwise) {
  histogram a, b;
  a.lo = b.lo = 0.0;
  a.hi = b.hi = 1.0;
  a.observe(0.25);
  b.observe(0.25);
  b.observe(0.75);
  a.merge(b);
  EXPECT_EQ(a.count, 3u);
  EXPECT_DOUBLE_EQ(a.sum, 1.25);
  EXPECT_DOUBLE_EQ(a.min_value, 0.25);
  EXPECT_DOUBLE_EQ(a.max_value, 0.75);
}

TEST(Histogram, MergeRejectsMismatchedRanges) {
  histogram a, b;
  a.lo = 0.0;
  a.hi = 1.0;
  b.lo = 0.0;
  b.hi = 2.0;
  b.observe(0.5);
  EXPECT_THROW(a.merge(b), std::logic_error);
  // An empty source merges trivially regardless of range.
  const histogram empty{.lo = -1.0, .hi = 1.0};
  a.merge(empty);
  EXPECT_EQ(a.count, 0u);
}

TEST(MetricsRegistry, SlotsFollowTheCatalogue) {
  const metrics_registry reg;
  std::size_t counters = 0, histograms = 0, gauges = 0;
  for (std::size_t i = 0; i < probe_count; ++i) {
    const probe p = static_cast<probe>(i);
    const probe_info& pi = info(p);
    switch (pi.kind) {
      case probe_kind::counter:
        EXPECT_EQ(slot(p), counters++) << pi.name;
        EXPECT_EQ(reg.counter_at(p).value, 0u) << pi.name;
        break;
      case probe_kind::value:
        EXPECT_EQ(slot(p), histograms++) << pi.name;
        EXPECT_EQ(reg.histogram_at(p).lo, pi.lo) << pi.name;
        EXPECT_EQ(reg.histogram_at(p).hi, pi.hi) << pi.name;
        EXPECT_EQ(reg.histogram_at(p).count, 0u) << pi.name;
        break;
      case probe_kind::gauge:
        EXPECT_EQ(slot(p), gauges++) << pi.name;
        EXPECT_FALSE(reg.gauge_at(p).set) << pi.name;
        break;
    }
  }
  EXPECT_EQ(counters, probe_count_of(probe_kind::counter));
  EXPECT_EQ(histograms, probe_count_of(probe_kind::value));
  EXPECT_EQ(gauges, probe_count_of(probe_kind::gauge));
}

TEST(MetricsRegistry, ReadsRejectProbesOfAnotherKind) {
  const metrics_registry reg;
  EXPECT_THROW((void)reg.counter_at(probe::evm_rms), std::invalid_argument);
  EXPECT_THROW((void)reg.histogram_at(probe::trials), std::invalid_argument);
  EXPECT_THROW((void)reg.gauge_at(probe::trials), std::invalid_argument);
}

TEST(MetricsRegistry, GetCounterLooksUpCatalogueNames) {
  metrics_registry reg;
  counter& c = reg.get_counter("sim.trials");
  c.value = 3;
  EXPECT_EQ(reg.counter_at(probe::trials).value, 3u);
  EXPECT_EQ(&reg.get_counter("sim.trials"), &c);
  // An unknown name, or the name of another kind, is not created.
  EXPECT_THROW(reg.get_counter("a"), std::out_of_range);
  EXPECT_THROW(reg.get_counter("reader.evm_rms"), std::out_of_range);
}

TEST(MetricsRegistry, GaugeSetTracksLastValue) {
  collector c;
  c.set(probe::roi_coverage, 1.5);
  c.set(probe::roi_coverage, -2.0);
  EXPECT_TRUE(c.registry().gauge_at(probe::roi_coverage).set);
  EXPECT_DOUBLE_EQ(c.registry().gauge_at(probe::roi_coverage).value, -2.0);
}

TEST(MetricsRegistry, MergeCombinesAllKinds) {
  collector a, b;
  a.count(probe::trials, 1);
  b.count(probe::trials, 2);
  b.count(probe::bit_errors, 7);
  b.set(probe::roi_coverage, 4.0);
  a.observe(probe::evm_rms, 0.5);
  b.observe(probe::evm_rms, 0.7);
  a.registry().merge(b.registry());
  const metrics_registry& reg = a.registry();
  EXPECT_EQ(reg.counter_at(probe::trials).value, 3u);
  EXPECT_EQ(reg.counter_at(probe::bit_errors).value, 7u);
  EXPECT_DOUBLE_EQ(reg.gauge_at(probe::roi_coverage).value, 4.0);
  EXPECT_EQ(reg.histogram_at(probe::evm_rms).count, 2u);
}

TEST(MetricsRegistry, MergeIsAssociativeOnCounters) {
  collector a, b, c;
  a.count(probe::trials, 1);
  b.count(probe::trials, 2);
  c.count(probe::trials, 4);
  metrics_registry left;
  left.merge(a.registry());
  left.merge(b.registry());
  left.merge(c.registry());
  metrics_registry bc;
  bc.merge(b.registry());
  bc.merge(c.registry());
  metrics_registry right;
  right.merge(a.registry());
  right.merge(bc);
  EXPECT_EQ(left.counter_at(probe::trials).value,
            right.counter_at(probe::trials).value);
}

}  // namespace
}  // namespace backfi::obs
