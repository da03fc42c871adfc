#include "obs/collector.h"

namespace backfi::obs {

void collector::count(probe p, std::uint64_t delta) {
  if (info(p).kind == probe_kind::counter)
    registry_.counters_[slot(p)].value += delta;
}

void collector::observe(probe p, double value) {
  if (info(p).kind == probe_kind::value)
    registry_.histograms_[slot(p)].observe(value);
}

void collector::set(probe p, double value) {
  if (info(p).kind == probe_kind::gauge)
    registry_.gauges_[slot(p)] = {value, true};
}

void collector::merge(const collector& other) {
  registry_.merge(other.registry_);
}

collector_fork::collector_fork(collector* parent, std::size_t n)
    : parent_(parent) {
  if (parent_) children_.resize(n);
}

void collector_fork::join() {
  if (!parent_) return;
  // Index order, always: this is the determinism contract.
  for (const collector& child : children_) parent_->merge(child);
  parent_ = nullptr;
}

}  // namespace backfi::obs
