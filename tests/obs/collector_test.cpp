// Collector semantics: catalogue pre-registration, typed probe fast path,
// null-safe helpers, timing spans, and the deterministic fork/join merge.
#include "obs/collector.h"

#include <gtest/gtest.h>

#include <string>

#include "obs/export.h"

namespace backfi::obs {
namespace {

TEST(Collector, PreRegistersFullCatalogue) {
  const collector c;
  for (const probe_info& pi : probe_catalogue()) {
    if (pi.kind == probe_kind::counter) {
      const auto it = c.registry().counters().find(pi.name);
      ASSERT_NE(it, c.registry().counters().end()) << pi.name;
      EXPECT_EQ(it->second.value, 0u) << pi.name;
    } else if (pi.kind == probe_kind::value) {
      const auto it = c.registry().histograms().find(pi.name);
      ASSERT_NE(it, c.registry().histograms().end()) << pi.name;
      EXPECT_EQ(it->second.count, 0u) << pi.name;
    } else {
      const auto it = c.registry().gauges().find(pi.name);
      ASSERT_NE(it, c.registry().gauges().end()) << pi.name;
      EXPECT_FALSE(it->second.set) << pi.name;
    }
  }
}

TEST(Collector, CatalogueNamesAreUniqueAndGrouped) {
  for (const probe_info& pi : probe_catalogue()) {
    const std::string_view name = pi.name;
    const bool grouped = name.starts_with("sim.") || name.starts_with("fd.") ||
                         name.starts_with("reader.") ||
                         name.starts_with("tag.") || name.starts_with("mac.") ||
                         name.starts_with("timing.") ||
                         name.starts_with("runtime.");
    EXPECT_TRUE(grouped) << name;
  }
  collector c;  // the constructor would double-register on a duplicate name
  std::size_t counters = 0, histograms = 0, gauges = 0;
  for (const probe_info& pi : probe_catalogue()) {
    switch (pi.kind) {
      case probe_kind::counter: ++counters; break;
      case probe_kind::value: ++histograms; break;
      case probe_kind::gauge: ++gauges; break;
    }
  }
  EXPECT_EQ(c.registry().counters().size(), counters);
  EXPECT_EQ(c.registry().histograms().size(), histograms);
  EXPECT_EQ(c.registry().gauges().size(), gauges);
}

TEST(Collector, TypedProbesHitTheNamedMetrics) {
  collector c;
  c.count(probe::trials, 3);
  c.observe(probe::post_mrc_snr_db, 12.5);
  EXPECT_EQ(c.registry().counters().at("sim.trials").value, 3u);
  EXPECT_EQ(c.registry().histograms().at("reader.post_mrc_snr_db").count, 1u);
}

TEST(Collector, NullSafeHelpersIgnoreNull) {
  count(nullptr, probe::trials);
  observe(nullptr, probe::evm_rms, 0.1);  // must not crash
  set(nullptr, probe::roi_coverage, 0.5);
  collector c;
  count(&c, probe::trials, 2);
  observe(&c, probe::evm_rms, 0.1);
  set(&c, probe::roi_coverage, 0.5);
  EXPECT_EQ(c.registry().counters().at("sim.trials").value, 2u);
  EXPECT_EQ(c.registry().histograms().at("reader.evm_rms").count, 1u);
  const gauge& g = c.registry().gauges().at("runtime.chain.roi.coverage");
  EXPECT_TRUE(g.set);
  EXPECT_EQ(g.value, 0.5);
}

TEST(TimingSpan, RecordsUnderTimingPrefixOnce) {
  collector c;
  {
    timing_span span(&c, probe::timing_decode);
    span.stop();
    span.stop();  // idempotent
  }
  const auto it = c.registry().histograms().find("timing.reader.decode");
  ASSERT_NE(it, c.registry().histograms().end());
  EXPECT_EQ(it->second.count, 1u);
  EXPECT_GE(it->second.sum, 0.0);
}

TEST(TimingSpan, NullCollectorIsInert) {
  timing_span span(nullptr, probe::timing_decode);
  span.stop();  // no clock read, no crash
}

TEST(CollectorFork, JoinMergesInIndexOrder) {
  collector parent;
  collector_fork fork(&parent, 3);
  for (std::size_t i = 0; i < 3; ++i) {
    fork.child(i)->count(probe::trials, i + 1);
    fork.child(i)->observe(probe::evm_rms, 0.1 * static_cast<double>(i + 1));
  }
  fork.join();
  EXPECT_EQ(parent.registry().counters().at("sim.trials").value, 6u);
  EXPECT_EQ(parent.registry().histograms().at("reader.evm_rms").count, 3u);
}

TEST(CollectorFork, NullParentIsInert) {
  collector_fork fork(nullptr, 4);
  EXPECT_EQ(fork.child(0), nullptr);
  EXPECT_EQ(fork.child(3), nullptr);
  fork.join();  // no-op
}

TEST(CollectorFork, MergeOrderIsThreadScheduleIndependent) {
  // Two forks filled in different (simulated) completion orders must merge
  // to byte-identical exports: join() always walks children by index.
  const double values[] = {0.31, 0.77, 0.12, 0.55};
  collector a;
  {
    collector_fork fork(&a, 4);
    for (const std::size_t i : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                                std::size_t{3}})
      fork.child(i)->observe(probe::evm_rms, values[i]);
    fork.join();
  }
  collector b;
  {
    collector_fork fork(&b, 4);
    for (const std::size_t i : {std::size_t{3}, std::size_t{0}, std::size_t{2},
                                std::size_t{1}})
      fork.child(i)->observe(probe::evm_rms, values[i]);
    fork.join();
  }
  EXPECT_EQ(to_json(a.registry(), {.include_timings = false}),
            to_json(b.registry(), {.include_timings = false}));
}

}  // namespace
}  // namespace backfi::obs
