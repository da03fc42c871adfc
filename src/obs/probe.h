// The typed probe catalogue of the BackFi pipeline: the one declaration of
// every metric an obs::collector can hold.
//
// A probe is a named quantity one layer of the chain reports through an
// obs::collector: an event counter (monotone count of occurrences), a value
// series (aggregated into a fixed-bin histogram), or a gauge (last value
// set wins). The catalogue is closed and enumerable so exporters and CI
// checks can detect silently-disconnected instrumentation: a probe that is
// registered but never reports a sample is a wiring bug, not an idle metric.
//
// Units convention (the single source of truth, see DESIGN.md
// "Observability"): power ratios and depths in dB, rates in bps, energy in
// pJ, time in seconds, dimensionless quantities (correlation, EVM) raw.
//
// Names under "timing." (wall-clock spans) and "runtime." (execution-
// dependent gauges) describe the run rather than the simulated physics;
// deterministic exports drop them (obs::json_options::include_timings).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace backfi::obs {

// Every row is one of
//   C(id, name)                counter, unit "count"
//   V(id, name, unit, lo, hi)  value series, histogram over [lo, hi)
//   G(id, name, unit)          gauge
#define BACKFI_PROBES(C, V, G)                                               \
  /* --- sim: trial protocol outcomes --- */                                 \
  C(trials, "sim.trials")                  /* run_backscatter_trial calls */ \
  C(trials_woke, "sim.trials_woke")        /* tag wake detector fired */     \
  C(trials_sync_found, "sim.trials_sync_found") /* sync word located */      \
  C(trials_decoded, "sim.trials_decoded")  /* decode ran to completion */    \
  C(trials_crc_ok, "sim.trials_crc_ok")    /* payload CRC verified */        \
  C(bit_errors, "sim.bit_errors")          /* payload bit errors, summed */  \
  C(raw_symbol_errors, "sim.raw_symbol_errors") /* pre-Viterbi, summed */    \
                                                                             \
  /* --- fd: self-interference cancellation (Fig. 9 / 11a) --- */            \
  V(analog_depth_db, "fd.analog_depth_db", "dB", 0.0, 120.0)                 \
  V(total_depth_db, "fd.total_depth_db", "dB", 0.0, 120.0)                   \
  V(residual_si_over_noise_db, "fd.residual_si_over_noise_db", "dB", -40.0,  \
    40.0)                                                                    \
  C(adc_saturated, "fd.adc_saturated")     /* ADC clipping events */         \
  C(cancellation_bypassed, "fd.cancellation_bypassed") /* refused adapt */   \
                                                                             \
  /* --- reader: synchronization and decoding (Figs. 8/10/11) --- */         \
  V(sync_correlation, "reader.sync_correlation", "", 0.0, 1.0)               \
  C(sync_attempts, "reader.sync_attempts") /* timing scans, retries incl. */ \
  V(timing_offset, "reader.timing_offset", "samples", -128.0, 128.0)         \
  V(post_mrc_snr_db, "reader.post_mrc_snr_db", "dB", -40.0, 60.0)            \
  V(expected_snr_db, "reader.expected_snr_db", "dB", -40.0, 60.0) /* VNA */  \
  V(evm_rms, "reader.evm_rms", "", 0.0, 2.0)                                 \
  V(viterbi_path_metric, "reader.viterbi_path_metric", "metric/step", -10.0, \
    10.0)                                                                    \
  C(decode_failures, "reader.decode_failures") /* any typed failure */       \
                                                                             \
  /* --- tag / link accounting --- */                                        \
  V(tag_energy_pj, "tag.energy_pj", "pJ", 0.0, 1.0e5)                        \
  V(effective_throughput_bps, "sim.effective_throughput_bps", "bps", 0.0,    \
    1.0e7)                                                                   \
                                                                             \
  /* --- mac: ARQ / link-supervision state machine --- */                    \
  C(arq_state_transitions, "mac.arq_state_transitions")                      \
  C(arq_retries, "mac.arq_retries")        /* immediate re-polls */          \
  C(arq_fallbacks, "mac.arq_fallbacks")    /* rate steps down */             \
  C(arq_probe_ups, "mac.arq_probe_ups")    /* rate steps up attempted */     \
  C(arq_recoveries, "mac.arq_recoveries")  /* leaving a degraded state */    \
  C(arq_suspensions, "mac.arq_suspensions") /* parked at the robust floor */ \
  C(arq_deferred_polls, "mac.arq_deferred_polls") /* spent backed off */     \
                                                                             \
  /* --- mac: erasure-coded streams (link_supervisor) --- */                 \
  C(coding_symbols_delivered, "mac.coding.symbols_delivered")                \
  C(coding_symbols_erased, "mac.coding.symbols_erased")                      \
  C(coding_erasure_backoffs, "mac.coding.erasure_backoffs")                  \
  C(coding_blocks_decoded, "mac.coding.blocks_decoded")                      \
  C(coding_repair_rounds, "mac.coding.repair_rounds")                        \
  C(coding_blocks_abandoned, "mac.coding.blocks_abandoned")                  \
                                                                             \
  /* --- sim: adaptive Monte-Carlo PER (packet_error_rates) --- */           \
  C(adaptive_points, "sim.adaptive.points")                                  \
  C(adaptive_trials_run, "sim.adaptive.trials_run")                          \
  C(adaptive_trials_saved, "sim.adaptive.trials_saved")                      \
  C(adaptive_early_stops, "sim.adaptive.early_stops")                        \
                                                                             \
  /* --- sim: wild-traffic arms, summed over arms (run_wild_traffic) --- */  \
  C(coding_arms, "sim.coding.arms")                                          \
  C(coding_arm_blocks_decoded, "sim.coding.blocks_decoded")                  \
  C(coding_arm_blocks_abandoned, "sim.coding.blocks_abandoned")              \
  C(coding_arm_repair_symbols, "sim.coding.repair_symbols")                  \
  V(coding_arm_goodput_bps, "sim.coding.arm_goodput_bps", "bps", 0.0, 2e7)   \
                                                                             \
  /* --- sim: sweep scheduler, pure functions of the submitted work --- */   \
  C(scheduler_sweeps, "sim.scheduler.sweeps")                                \
  C(scheduler_tasks, "sim.scheduler.tasks")                                  \
  C(scheduler_chunks, "sim.scheduler.chunks")                                \
                                                                             \
  /* --- reader: always-on stream session --- */                             \
  C(stream_packets_in, "reader.stream.packets_in")                           \
  C(stream_packets_decoded, "reader.stream.packets_decoded")                 \
  C(stream_crc_ok, "reader.stream.crc_ok")                                   \
                                                                             \
  /* --- reader: one counter per decode_failure other than none, in */       \
  /* enum order (reader/decoder.cpp maps the enum onto these rows) --- */    \
  C(failure_empty_input, "reader.failure.empty_input")                       \
  C(failure_size_mismatch, "reader.failure.size_mismatch")                   \
  C(failure_origin_out_of_range, "reader.failure.origin_out_of_range")       \
  C(failure_zero_payload, "reader.failure.zero_payload")                     \
  C(failure_payload_too_long, "reader.failure.payload_too_long")             \
  C(failure_estimation_window_too_short,                                     \
    "reader.failure.estimation_window_too_short")                            \
  C(failure_non_finite_samples, "reader.failure.non_finite_samples")         \
  C(failure_sync_not_found, "reader.failure.sync_not_found")                 \
  C(failure_insufficient_symbols, "reader.failure.insufficient_symbols")     \
  C(failure_crc_failed, "reader.failure.crc_failed")                         \
                                                                             \
  /* --- timing: wall-clock spans [s] --- */                                 \
  V(timing_receive_chain, "timing.fd.receive_chain", "s", 0.0, 1.0)          \
  V(timing_decode, "timing.reader.decode", "s", 0.0, 1.0)                    \
  V(timing_stream_cancel, "timing.reader.stream.cancel", "s", 0.0, 1.0)      \
  V(timing_stream_decode, "timing.reader.stream.decode", "s", 0.0, 1.0)      \
                                                                             \
  /* --- runtime: sweep scheduler --- */                                     \
  G(scheduler_threads, "runtime.scheduler.threads", "count")                 \
  G(scheduler_wall_seconds, "runtime.scheduler.wall_seconds", "s")           \
  G(scheduler_busy_seconds_total, "runtime.scheduler.busy_seconds_total",    \
    "s")                                                                     \
  G(scheduler_efficiency_pct, "runtime.scheduler.efficiency_pct", "%")       \
                                                                             \
  /* --- runtime: stream session occupancy and latency --- */                \
  G(stream_packets_dropped, "runtime.stream.packets_dropped", "count")       \
  G(stream_queue_high_water, "runtime.stream.queue_high_water", "count")     \
  G(stream_latency_us_max, "runtime.stream.latency_us_max", "us")            \
  G(stream_latency_us_mean, "runtime.stream.latency_us_mean", "us")          \
  G(stream_cancel_us_mean, "runtime.stream.cancel_us_mean", "us")            \
  G(stream_decode_us_mean, "runtime.stream.decode_us_mean", "us")            \
                                                                             \
  /* --- runtime: synthesis replay caches --- */                             \
  G(noise_cache_hits, "runtime.noise_cache.hits", "count")                   \
  G(noise_cache_misses, "runtime.noise_cache.misses", "count")               \
  G(noise_cache_entries, "runtime.noise_cache.entries", "count")             \
  G(noise_cache_bytes, "runtime.noise_cache.bytes", "bytes")                 \
  G(excitation_cache_hits, "runtime.excitation_cache.hits", "count")         \
  G(excitation_cache_misses, "runtime.excitation_cache.misses", "count")     \
  G(excitation_cache_entries, "runtime.excitation_cache.entries", "count")   \
  G(excitation_cache_bytes, "runtime.excitation_cache.bytes", "bytes")       \
                                                                             \
  /* --- runtime: receive-chain region of interest --- */                    \
  G(roi_samples_processed, "runtime.chain.roi.samples_processed", "samples") \
  G(roi_samples_skipped, "runtime.chain.roi.samples_skipped", "samples")     \
  G(roi_coverage, "runtime.chain.roi.coverage", "")

#define BACKFI_PROBE_ID(id, ...) id,
enum class probe : std::uint8_t {
  BACKFI_PROBES(BACKFI_PROBE_ID, BACKFI_PROBE_ID, BACKFI_PROBE_ID)
};
#undef BACKFI_PROBE_ID

#define BACKFI_PROBE_ONE(...) +1
inline constexpr std::size_t probe_count =
    0 BACKFI_PROBES(BACKFI_PROBE_ONE, BACKFI_PROBE_ONE, BACKFI_PROBE_ONE);
#undef BACKFI_PROBE_ONE

enum class probe_kind : std::uint8_t {
  counter,  ///< monotone event count
  value,    ///< sampled quantity, aggregated into a histogram
  gauge,    ///< last value set; sampled once it has been set
};

/// Static description of one probe: exported name, kind, unit, and the
/// histogram range for value probes (samples outside clamp to edge bins).
struct probe_info {
  probe_kind kind;
  const char* name;  ///< dotted export name, e.g. "fd.analog_depth_db"
  const char* unit;  ///< "dB", "bps", "pJ", "s", "samples", "count", ""
  double lo = 0.0;   ///< histogram range (value probes only)
  double hi = 1.0;
};

namespace detail {
#define BACKFI_PROBE_COUNTER(id, name) {probe_kind::counter, name, "count"},
#define BACKFI_PROBE_VALUE(id, name, unit, lo, hi) \
  {probe_kind::value, name, unit, lo, hi},
#define BACKFI_PROBE_GAUGE(id, name, unit) {probe_kind::gauge, name, unit},
inline constexpr probe_info catalogue[] = {BACKFI_PROBES(
    BACKFI_PROBE_COUNTER, BACKFI_PROBE_VALUE, BACKFI_PROBE_GAUGE)};
#undef BACKFI_PROBE_COUNTER
#undef BACKFI_PROBE_VALUE
#undef BACKFI_PROBE_GAUGE
}  // namespace detail

/// The full catalogue, in enum order.
constexpr std::span<const probe_info> probe_catalogue() {
  return detail::catalogue;
}

/// Catalogue entry of one probe.
constexpr const probe_info& info(probe p) {
  return detail::catalogue[static_cast<std::size_t>(p)];
}

/// Exported name of one probe (shorthand for info(p).name).
constexpr const char* to_string(probe p) { return info(p).name; }

}  // namespace backfi::obs
