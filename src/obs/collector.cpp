#include "obs/collector.h"

namespace backfi::obs {

namespace {

#define BACKFI_PROBE_COUNTER(id, name) {probe_kind::counter, name, "count"},
#define BACKFI_PROBE_VALUE(id, name, unit, lo, hi) \
  {probe_kind::value, name, unit, lo, hi},
#define BACKFI_PROBE_GAUGE(id, name, unit) {probe_kind::gauge, name, unit},
constexpr probe_info kCatalogue[] = {BACKFI_PROBES(
    BACKFI_PROBE_COUNTER, BACKFI_PROBE_VALUE, BACKFI_PROBE_GAUGE)};
#undef BACKFI_PROBE_COUNTER
#undef BACKFI_PROBE_VALUE
#undef BACKFI_PROBE_GAUGE

}  // namespace

std::span<const probe_info> probe_catalogue() { return kCatalogue; }

const probe_info& info(probe p) {
  return kCatalogue[static_cast<std::size_t>(p)];
}

const char* to_string(probe p) { return info(p).name; }

collector::collector() {
  for (std::size_t i = 0; i < probe_count; ++i) {
    const probe_info& pi = kCatalogue[i];
    switch (pi.kind) {
      case probe_kind::counter:
        counters_[i] = &registry_.get_counter(pi.name);
        break;
      case probe_kind::value:
        histograms_[i] = &registry_.get_histogram(pi.name, pi.lo, pi.hi);
        break;
      case probe_kind::gauge:
        gauges_[i] = &registry_.get_gauge(pi.name);
        break;
    }
  }
}

void collector::count(probe p, std::uint64_t delta) {
  counter* c = counters_[static_cast<std::size_t>(p)];
  if (c) c->value += delta;
}

void collector::observe(probe p, double value) {
  histogram* h = histograms_[static_cast<std::size_t>(p)];
  if (h) h->observe(value);
}

void collector::set(probe p, double value) {
  gauge* g = gauges_[static_cast<std::size_t>(p)];
  if (g) {
    g->value = value;
    g->set = true;
  }
}

void collector::merge(const collector& other) {
  registry_.merge(other.registry_);
}

collector_fork::collector_fork(collector* parent, std::size_t n)
    : parent_(parent) {
  if (!parent_) return;
  children_.resize(n);
  for (auto& child : children_) child = std::make_unique<collector>();
}

void collector_fork::join() {
  if (!parent_) return;
  // Index order, always: this is the determinism contract.
  for (const auto& child : children_) parent_->merge(*child);
  children_.clear();
  parent_ = nullptr;
}

}  // namespace backfi::obs
