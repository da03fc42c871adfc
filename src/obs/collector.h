// The collection point of the observability layer.
//
// A collector owns one metrics_registry, which holds a slot for every row
// of the probe catalogue (so a probe that never reports is visible as zero
// samples); the catalogue is the only way a metric enters it. The
// pipeline passes a *nullable* `collector*` down the chain; every probe
// site goes through the free helpers below, which compile to a single
// null check when collection is disabled — the hot path pays nothing.
//
// Determinism contract: everything except "timing.*" and "runtime.*"
// metrics is a pure function of the trial inputs. Parallel trial loops
// give each index its own collector via collector_fork and merge in index
// order, so exported aggregates (with timings excluded) are bit-identical
// at any BACKFI_THREADS. Timing spans measure wall clock and are exempt.
#pragma once

#include <chrono>
#include <vector>

#include "obs/metrics.h"
#include "obs/probe.h"

namespace backfi::obs {

/// Per-packet link-quality report: the quantities the paper's evaluation
/// figures are built from, assembled once per trial by the collection
/// layer (sim::run_backscatter_trial) from the stage results. Each field
/// is also a probe, emitted exactly once at the layer that computes it
/// (depths in fd, SNR/EVM/sync in reader, residual/oracle in sim). Units
/// follow the probe catalogue convention: dB for ratios/depths, bps for
/// rates, pJ for energy.
struct link_report {
  double post_mrc_snr_db = 0.0;   ///< decoder's measured post-MRC SNR
  double expected_snr_db = 0.0;   ///< oracle (true channels) post-MRC SNR
  double residual_si_over_noise_db = 0.0;  ///< cancellation residue
  double analog_depth_db = 0.0;   ///< analog-stage SI suppression
  double total_depth_db = 0.0;    ///< both stages' SI suppression
  double sync_correlation = 0.0;  ///< normalized sync-word peak
  double evm_rms = 0.0;           ///< RMS error vs sliced PSK points
};

class collector {
 public:
  /// Typed probe fast path: writes the probe's registry slot directly.
  /// Each applies to probes of its kind (counter, value, gauge) and
  /// ignores a probe of another kind.
  void count(probe p, std::uint64_t delta = 1);
  void observe(probe p, double value);
  void set(probe p, double value);

  /// Fold another collector's registry into this one (slot by slot).
  void merge(const collector& other);

  metrics_registry& registry() { return registry_; }
  const metrics_registry& registry() const { return registry_; }

 private:
  metrics_registry registry_;
};

// --- Null-safe probe helpers: the API the pipeline calls. -----------------

inline void count(collector* c, probe p, std::uint64_t delta = 1) {
  if (c) c->count(p, delta);
}

inline void observe(collector* c, probe p, double value) {
  if (c) c->observe(p, value);
}

inline void set(collector* c, probe p, double value) {
  if (c) c->set(p, value);
}

/// RAII wall-time span: observes the elapsed seconds into a "timing.*"
/// value probe on destruction. With a null collector neither clock is
/// read — disabled spans are free.
class timing_span {
 public:
  timing_span(collector* c, probe p) : collector_(c), probe_(p) {
    if (collector_) start_ = std::chrono::steady_clock::now();
  }
  /// Record the span now instead of at destruction (idempotent).
  void stop() {
    if (!collector_) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    collector_->observe(probe_,
                        std::chrono::duration<double>(elapsed).count());
    collector_ = nullptr;
  }
  ~timing_span() { stop(); }
  timing_span(const timing_span&) = delete;
  timing_span& operator=(const timing_span&) = delete;

 private:
  collector* collector_;
  probe probe_;
  std::chrono::steady_clock::time_point start_;
};

/// Deterministic fan-out: one child collector per parallel index (all in
/// one contiguous buffer), merged back into the parent in index order by
/// join(). With a null parent the fork is inert (child() returns nullptr,
/// join() is a no-op), so the parallel loops pay nothing when collection
/// is off.
class collector_fork {
 public:
  collector_fork(collector* parent, std::size_t n);

  collector* child(std::size_t i) {
    return parent_ ? &children_[i] : nullptr;
  }

  void join();

 private:
  collector* parent_;
  std::vector<collector> children_;
};

}  // namespace backfi::obs
