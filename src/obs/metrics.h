// Deterministic metrics primitives for the observability layer.
//
// A metrics_registry holds one counter, gauge or fixed-bin histogram per
// row of the probe catalogue (obs/probe.h). Everything is ordinary
// single-threaded state: a registry is owned by one collector and one
// thread at a time, and concurrency is handled above this layer by giving
// each parallel trial its own registry and merging them in trial-index
// order (obs::collector_fork). That ordering rule is what makes exported
// aggregates bit-identical at any BACKFI_THREADS: floating-point sums are
// accumulated in the same sequence regardless of which worker ran which
// trial.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "obs/probe.h"

namespace backfi::obs {

struct counter {
  std::uint64_t value = 0;
};

struct gauge {
  double value = 0.0;
  bool set = false;  ///< distinguishes "never written" from 0.0
};

/// Fixed-range, fixed-bin-count histogram with exact moment aggregates.
/// Samples outside [lo, hi) land in the edge bins; the moments (sum,
/// sum_sq, min, max) always use the exact sample value.
struct histogram {
  static constexpr std::size_t n_bins = 32;

  double lo = 0.0;
  double hi = 1.0;
  std::uint64_t count = 0;
  double sum = 0.0;
  double sum_sq = 0.0;
  double min_value = 0.0;  ///< valid only when count > 0
  double max_value = 0.0;  ///< valid only when count > 0
  std::array<std::uint64_t, n_bins> bins{};

  void observe(double value);
  /// Fold `other` into this histogram (ranges must match).
  void merge(const histogram& other);
  double mean() const {
    return count > 0 ? sum / static_cast<double>(count) : 0.0;
  }
};

/// Number of catalogue rows of one kind: the length of that kind's slot
/// array in a metrics_registry.
constexpr std::size_t probe_count_of(probe_kind kind) {
  std::size_t n = 0;
  for (const probe_info& pi : probe_catalogue()) n += pi.kind == kind ? 1 : 0;
  return n;
}

/// Slot of each probe in its kind's array: its rank among the catalogue
/// rows of that kind, generated from BACKFI_PROBES at compile time.
inline constexpr auto probe_slots = [] {
  std::array<std::uint8_t, probe_count> slots{};
  std::array<std::uint8_t, 3> next{};  // one running rank per probe_kind
  for (std::size_t i = 0; i < probe_count; ++i)
    slots[i] = next[static_cast<std::size_t>(probe_catalogue()[i].kind)]++;
  return slots;
}();

constexpr std::size_t slot(probe p) {
  return probe_slots[static_cast<std::size_t>(p)];
}

/// The metric store: three fixed arrays, one slot per catalogue row of that
/// kind. The catalogue is the only way a metric enters, so the store holds
/// no names; exporters take them from the catalogue.
class metrics_registry {
 public:
  /// Every slot at zero, histogram ranges from the catalogue.
  metrics_registry();

  /// Typed reads; each throws std::invalid_argument for a probe of another
  /// kind.
  const counter& counter_at(probe p) const;
  const gauge& gauge_at(probe p) const;
  const histogram& histogram_at(probe p) const;

  /// The counter of the catalogue row exported as `name`; throws
  /// std::out_of_range when no counter row has that name.
  counter& get_counter(std::string_view name);

  /// Fold `other` into this registry slot by slot: counters and histograms
  /// add, gauges take the other's value when it was set (the caller
  /// controls determinism by merging in a fixed order).
  void merge(const metrics_registry& other);

 private:
  friend class collector;  // writes slots directly

  std::array<counter, probe_count_of(probe_kind::counter)> counters_{};
  std::array<gauge, probe_count_of(probe_kind::gauge)> gauges_{};
  std::array<histogram, probe_count_of(probe_kind::value)> histograms_{};
};

}  // namespace backfi::obs
