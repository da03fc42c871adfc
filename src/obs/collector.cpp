#include "obs/collector.h"

#include <string>

namespace backfi::obs {

namespace {

// Catalogue order must match the probe enum exactly; verified below.
constexpr probe_info kCatalogue[] = {
    {probe::trials, probe_kind::counter, "sim.trials", "count"},
    {probe::trials_woke, probe_kind::counter, "sim.trials_woke", "count"},
    {probe::trials_sync_found, probe_kind::counter, "sim.trials_sync_found",
     "count"},
    {probe::trials_decoded, probe_kind::counter, "sim.trials_decoded", "count"},
    {probe::trials_crc_ok, probe_kind::counter, "sim.trials_crc_ok", "count"},
    {probe::bit_errors, probe_kind::counter, "sim.bit_errors", "count"},
    {probe::raw_symbol_errors, probe_kind::counter, "sim.raw_symbol_errors",
     "count"},

    {probe::analog_depth_db, probe_kind::value, "fd.analog_depth_db", "dB",
     0.0, 120.0},
    {probe::total_depth_db, probe_kind::value, "fd.total_depth_db", "dB", 0.0,
     120.0},
    {probe::residual_si_over_noise_db, probe_kind::value,
     "fd.residual_si_over_noise_db", "dB", -40.0, 40.0},
    {probe::adc_saturated, probe_kind::counter, "fd.adc_saturated", "count"},
    {probe::cancellation_bypassed, probe_kind::counter,
     "fd.cancellation_bypassed", "count"},

    {probe::sync_correlation, probe_kind::value, "reader.sync_correlation", "",
     0.0, 1.0},
    {probe::sync_attempts, probe_kind::counter, "reader.sync_attempts",
     "count"},
    {probe::timing_offset, probe_kind::value, "reader.timing_offset",
     "samples", -128.0, 128.0},
    {probe::post_mrc_snr_db, probe_kind::value, "reader.post_mrc_snr_db", "dB",
     -40.0, 60.0},
    {probe::expected_snr_db, probe_kind::value, "reader.expected_snr_db", "dB",
     -40.0, 60.0},
    {probe::evm_rms, probe_kind::value, "reader.evm_rms", "", 0.0, 2.0},
    {probe::viterbi_path_metric, probe_kind::value,
     "reader.viterbi_path_metric", "metric/step", -10.0, 10.0},
    {probe::decode_failures, probe_kind::counter, "reader.decode_failures",
     "count"},

    {probe::tag_energy_pj, probe_kind::value, "tag.energy_pj", "pJ", 0.0,
     1.0e5},
    {probe::effective_throughput_bps, probe_kind::value,
     "sim.effective_throughput_bps", "bps", 0.0, 1.0e7},

    {probe::arq_state_transitions, probe_kind::counter,
     "mac.arq_state_transitions", "count"},
    {probe::arq_retries, probe_kind::counter, "mac.arq_retries", "count"},
    {probe::arq_fallbacks, probe_kind::counter, "mac.arq_fallbacks", "count"},
    {probe::arq_probe_ups, probe_kind::counter, "mac.arq_probe_ups", "count"},
    {probe::arq_recoveries, probe_kind::counter, "mac.arq_recoveries", "count"},
    {probe::arq_suspensions, probe_kind::counter, "mac.arq_suspensions",
     "count"},
    {probe::arq_deferred_polls, probe_kind::counter, "mac.arq_deferred_polls",
     "count"},
};

static_assert(std::size(kCatalogue) == probe_count,
              "probe catalogue out of sync with the probe enum");

constexpr bool catalogue_in_enum_order() {
  for (std::size_t i = 0; i < std::size(kCatalogue); ++i)
    if (static_cast<std::size_t>(kCatalogue[i].id) != i) return false;
  return true;
}
static_assert(catalogue_in_enum_order(),
              "probe catalogue rows must follow enum order");

}  // namespace

std::span<const probe_info> probe_catalogue() { return kCatalogue; }

const probe_info& info(probe p) {
  return kCatalogue[static_cast<std::size_t>(p)];
}

const char* to_string(probe p) { return info(p).name; }

collector::collector() {
  for (const probe_info& pi : kCatalogue) {
    const std::size_t i = static_cast<std::size_t>(pi.id);
    if (pi.kind == probe_kind::counter) {
      counters_[i] = &registry_.get_counter(pi.name);
    } else {
      histograms_[i] = &registry_.get_histogram(pi.name, pi.lo, pi.hi);
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

void collector::add_counter(std::string_view name, std::uint64_t delta) {
  registry_.add(name, delta);
}

void collector::set_gauge(std::string_view name, double value) {
  registry_.set(name, value);
}

void collector::observe_named(std::string_view name, double value, double lo,
                              double hi) {
  registry_.observe(name, value, lo, hi);
}

void collector::record_timing(std::string_view name, double seconds) {
  std::string key = "timing.";
  key += name;
  // Range covers ~1 us to beyond any stage's realistic wall time.
  registry_.observe(key, seconds, 0.0, 1.0);
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
