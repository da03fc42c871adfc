// Collector semantics: catalogue pre-registration, typed probe fast path,
// null-safe helpers, timing spans, and the deterministic fork/join merge.
#include "obs/collector.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <string_view>

#include "obs/export.h"

namespace backfi::obs {
namespace {

TEST(Collector, PreRegistersFullCatalogue) {
  const collector c;
  const metrics_registry& reg = c.registry();
  for (std::size_t i = 0; i < probe_count; ++i) {
    const probe p = static_cast<probe>(i);
    const probe_info& pi = info(p);
    if (pi.kind == probe_kind::counter) {
      EXPECT_EQ(reg.counter_at(p).value, 0u) << pi.name;
    } else if (pi.kind == probe_kind::value) {
      EXPECT_EQ(reg.histogram_at(p).count, 0u) << pi.name;
    } else {
      EXPECT_FALSE(reg.gauge_at(p).set) << pi.name;
    }
  }
}

TEST(Collector, CatalogueNamesAreUniqueAndGrouped) {
  std::set<std::string_view> names;
  for (const probe_info& pi : probe_catalogue()) {
    const std::string_view name = pi.name;
    const bool grouped = name.starts_with("sim.") || name.starts_with("fd.") ||
                         name.starts_with("reader.") ||
                         name.starts_with("tag.") || name.starts_with("mac.") ||
                         name.starts_with("timing.") ||
                         name.starts_with("runtime.");
    EXPECT_TRUE(grouped) << name;
    EXPECT_TRUE(names.insert(name).second) << "duplicate " << name;
  }
  // Every row, once, in the export.
  const std::string csv = to_csv(collector().registry());
  std::size_t rows = 0;
  for (const char ch : csv) rows += ch == '\n' ? 1 : 0;
  const std::size_t unset_gauges = probe_count_of(probe_kind::gauge);
  EXPECT_EQ(rows, 1 + probe_count - unset_gauges);  // header + rows
}

TEST(Collector, TypedProbesHitTheNamedMetrics) {
  collector c;
  c.count(probe::trials, 3);
  c.observe(probe::post_mrc_snr_db, 12.5);
  EXPECT_EQ(c.registry().get_counter("sim.trials").value, 3u);
  EXPECT_EQ(c.registry().histogram_at(probe::post_mrc_snr_db).count, 1u);
}

TEST(Collector, WritesToAProbeOfAnotherKindAreIgnored) {
  collector c;
  c.count(probe::evm_rms, 2);
  c.observe(probe::trials, 1.0);
  c.set(probe::trials, 1.0);
  EXPECT_EQ(to_json(c.registry()), to_json(collector().registry()));
}

TEST(Collector, NullSafeHelpersIgnoreNull) {
  count(nullptr, probe::trials);
  observe(nullptr, probe::evm_rms, 0.1);  // must not crash
  set(nullptr, probe::roi_coverage, 0.5);
  collector c;
  count(&c, probe::trials, 2);
  observe(&c, probe::evm_rms, 0.1);
  set(&c, probe::roi_coverage, 0.5);
  EXPECT_EQ(c.registry().counter_at(probe::trials).value, 2u);
  EXPECT_EQ(c.registry().histogram_at(probe::evm_rms).count, 1u);
  const gauge& g = c.registry().gauge_at(probe::roi_coverage);
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
  const histogram& h = c.registry().histogram_at(probe::timing_decode);
  EXPECT_STREQ(to_string(probe::timing_decode), "timing.reader.decode");
  EXPECT_EQ(h.count, 1u);
  EXPECT_GE(h.sum, 0.0);
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
  EXPECT_EQ(parent.registry().counter_at(probe::trials).value, 6u);
  EXPECT_EQ(parent.registry().histogram_at(probe::evm_rms).count, 3u);
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
