#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace backfi::obs {

void histogram::observe(double value) {
  if (count == 0) {
    min_value = value;
    max_value = value;
  } else {
    min_value = std::min(min_value, value);
    max_value = std::max(max_value, value);
  }
  ++count;
  sum += value;
  sum_sq += value * value;

  const double width = hi - lo;
  std::size_t bin = 0;
  if (width > 0.0 && std::isfinite(value)) {
    const double frac = (value - lo) / width;
    if (frac >= 1.0) {
      bin = n_bins - 1;
    } else if (frac > 0.0) {
      bin = static_cast<std::size_t>(frac * static_cast<double>(n_bins));
      bin = std::min(bin, n_bins - 1);
    }
  }
  ++bins[bin];
}

void histogram::merge(const histogram& other) {
  if (other.count == 0) return;
  if (lo != other.lo || hi != other.hi)
    throw std::logic_error("histogram::merge: range mismatch");
  if (count == 0) {
    min_value = other.min_value;
    max_value = other.max_value;
  } else {
    min_value = std::min(min_value, other.min_value);
    max_value = std::max(max_value, other.max_value);
  }
  count += other.count;
  sum += other.sum;
  sum_sq += other.sum_sq;
  for (std::size_t i = 0; i < n_bins; ++i) bins[i] += other.bins[i];
}

namespace {

std::size_t slot_of_kind(probe p, probe_kind kind) {
  if (info(p).kind != kind)
    throw std::invalid_argument(std::string("metrics_registry: ") +
                                to_string(p) + " is of another probe kind");
  return slot(p);
}

}  // namespace

metrics_registry::metrics_registry() {
  for (std::size_t i = 0; i < probe_count; ++i) {
    const probe_info& pi = probe_catalogue()[i];
    if (pi.kind != probe_kind::value) continue;
    histogram& h = histograms_[slot(static_cast<probe>(i))];
    h.lo = pi.lo;
    h.hi = pi.hi;
  }
}

const counter& metrics_registry::counter_at(probe p) const {
  return counters_[slot_of_kind(p, probe_kind::counter)];
}

const gauge& metrics_registry::gauge_at(probe p) const {
  return gauges_[slot_of_kind(p, probe_kind::gauge)];
}

const histogram& metrics_registry::histogram_at(probe p) const {
  return histograms_[slot_of_kind(p, probe_kind::value)];
}

counter& metrics_registry::get_counter(std::string_view name) {
  for (std::size_t i = 0; i < probe_count; ++i) {
    const probe_info& pi = probe_catalogue()[i];
    if (pi.kind == probe_kind::counter && name == pi.name)
      return counters_[slot(static_cast<probe>(i))];
  }
  throw std::out_of_range("metrics_registry: no counter named " +
                          std::string(name));
}

void metrics_registry::merge(const metrics_registry& other) {
  for (std::size_t i = 0; i < counters_.size(); ++i)
    counters_[i].value += other.counters_[i].value;
  for (std::size_t i = 0; i < gauges_.size(); ++i)
    if (other.gauges_[i].set) gauges_[i] = other.gauges_[i];
  for (std::size_t i = 0; i < histograms_.size(); ++i)
    histograms_[i].merge(other.histograms_[i]);
}

}  // namespace backfi::obs
