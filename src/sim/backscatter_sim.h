// End-to-end BackFi link simulation: excitation -> channels -> tag ->
// self-interference cancellation -> BackFi decoder, with an oracle
// ("VNA") path that knows the true channels for Fig. 11a-style
// expected-vs-measured comparisons.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "channel/backscatter_link.h"
#include "fd/receive_chain.h"
#include "impair/plan.h"
#include "obs/collector.h"
#include "reader/decoder.h"
#include "reader/excitation.h"
#include "sim/synthesis.h"
#include "tag/tag_device.h"

namespace backfi::sim {

/// Why a scenario_config is unusable (mirrors reader::decode_failure: a
/// typed reason instead of an assert, so campaign drivers can report which
/// knob a sweep pushed out of range). Checked by validate(); every sim
/// entry point rejects invalid configs up front.
enum class config_error : std::uint8_t {
  none,
  zero_payload,           ///< payload_bits == 0
  bad_distance,           ///< tag_distance_m not finite or <= 0
  bad_symbol_rate,        ///< symbol rate outside (0, sample_rate / 2], or
                          ///< not dividing it (tag.validate())
  empty_excitation,       ///< excitation.n_ppdus == 0
  bad_bandwidth,          ///< budget.bandwidth_hz <= 0
  bad_chain_config,       ///< chain.validate() failed
  // Streaming-scenario constraints (sim/stream_sim.h).
  zero_stream_packets,    ///< stream n_packets == 0
  bad_stream_threads,     ///< stream threads outside {1, 2}
  bad_stream_queue,       ///< queue_capacity 0 or > dsp::max_ring_capacity
  bad_drift,              ///< non-finite drift coherence / bad LO step
  bad_tag_config,         ///< tag.validate() failed on coding or frame, or
                          ///< the frame of payload_bits is not representable
};

/// Display name, e.g. "bad_symbol_rate".
const char* to_string(config_error error);

struct scenario_config {
  channel::link_budget budget;
  tag::tag_config tag;
  reader::excitation_config excitation;
  reader::decoder_config decoder;
  fd::receive_chain_config chain;
  /// Fault injection at the pipeline boundaries (default: clean link).
  /// The plan's seed is re-mixed with `seed` so sweeps stay trial-independent.
  impair::impairment_plan impairments;
  double tag_distance_m = 2.0;
  std::size_t payload_bits = 1000;
  /// Maximum tag wake-detection lateness [samples] (uniform draw).
  std::size_t tag_jitter_samples = 8;
  std::uint64_t seed = 1;
  /// Observability sink (nullable). The trial forwards it into the receive
  /// chain and decoder and emits the sim-level probes (trial counters,
  /// residual SI, oracle SNR, energy, throughput) itself. Null — the
  /// default — costs one pointer test per probe site and produces
  /// bit-identical trial_results to a build without the probes.
  obs::collector* collector = nullptr;

  /// First violated constraint, or config_error::none when usable.
  config_error validate() const;
};

/// Throw std::invalid_argument naming `where` and the violated constraint
/// when the config is invalid. Every sim entry point calls this.
void validate_or_throw(const scenario_config& config, const char* where);

struct trial_result {
  // Protocol stages.
  bool woke = false;
  bool sync_found = false;
  bool decoded = false;
  bool crc_ok = false;
  reader::decode_failure failure = reader::decode_failure::none;
  bool cancellation_bypassed = false;  ///< receive chain refused to adapt
  std::size_t bit_errors = 0;       ///< payload bit errors after decoding
  std::size_t raw_symbol_errors = 0;  ///< pre-Viterbi hard PSK symbol errors

  /// Link-quality report (the quantities the paper's figures plot). Units
  /// follow the probe catalogue: dB for ratios and depths, bps for rates,
  /// pJ for energy. (The PR 3 top-level alias mirrors of these fields are
  /// gone; read `r.link.*`.)
  obs::link_report link;

  // Link accounting.
  std::size_t payload_symbols = 0;
  double tag_energy_pj = 0.0;
  double effective_throughput_bps = 0.0;  ///< info bits / data airtime if ok
};

/// Reusable per-thread buffer arena for run_backscatter_trial: every
/// capture-length intermediate of the pipeline (excitation, channel
/// outputs, tag reflection, receive-chain waveforms and canceller taps,
/// decoder scratch). Once warmed by a trial of the same configuration, the
/// workspace serves every capture-sized buffer from existing capacity. The
/// trial still makes a couple of dozen small allocations (the decoder's
/// per-config tables and returned vectors, the payload draw), and a fresh
/// seed adds the replay caches' capture-sized inserts; tests/alloc asserts
/// that no other allocation is as large as the capture.
struct trial_workspace {
  reader::excitation ex;
  synthesis_scratch synth;
  cvec rx;
  tag::tag_transmission tag_tx;
  fd::receive_chain_scratch chain;
  reader::decoder_scratch decoder;
  cvec oracle_yhat;
};

/// The calling thread's lazily created workspace (what the config-only
/// run_backscatter_trial overload uses).
trial_workspace& local_trial_workspace();

/// Run one complete backscatter exchange (on the calling thread's
/// workspace; results are independent of workspace history).
trial_result run_backscatter_trial(const scenario_config& config);

/// As above with an explicit workspace. Bit-identical to the workspace-free
/// path for any prior workspace contents.
trial_result run_backscatter_trial(const scenario_config& config,
                                   trial_workspace& workspace);

/// Oracle post-MRC SNR: true combined channel, thermal noise only.
double oracle_post_mrc_snr_db(std::span<const cplx> x,
                              const channel::backscatter_channels& channels,
                              double reflection_amplitude,
                              std::size_t samples_per_symbol, std::size_t guard,
                              std::size_t data_begin, std::size_t data_end);

/// Monte-Carlo control for PER evaluation. Without a target
/// (target_ci_halfwidth <= 0, the default) every point runs exactly
/// max_trials. With a target, trials are committed in `batch`-sized rounds
/// and a point stops as soon as its Wilson-score confidence interval
/// half-width is at or below the target (never before min_trials, never
/// past max_trials). The stopping decision replays the deterministic
/// per-trial outcome sequence in index order at fixed batch boundaries, so
/// the stop point — and therefore the reported PER and the sim.adaptive.*
/// telemetry — is identical at any thread count.
struct per_options {
  int max_trials = 0;               ///< trial budget per point (required)
  double target_ci_halfwidth = 0.0; ///< 0 = fixed count; else stop when tight
  int min_trials = 16;              ///< never stop before this many trials
  int batch = 8;                    ///< stopping rule checked every `batch`
  double z = 1.959963984540054;     ///< normal quantile (default 95% CI)
};

/// One evaluated PER point.
struct per_estimate {
  double per = 0.0;
  int trials_run = 0;
  int failures = 0;
  double ci_halfwidth = 1.0;  ///< Wilson half-width at trials_run
  bool early_stopped = false; ///< stopped by the CI rule before max_trials
};

/// Wilson-score interval half-width for `failures` out of `trials` at
/// normal quantile `z`; 1.0 when trials <= 0.
double wilson_halfwidth(int failures, int trials, double z);

/// The Monte-Carlo PER engine: packet error rate (CRC-based) of each
/// scenario, trial t of a point seeded derive_trial_seed(point seed, t).
/// Each round flattens every live point's next trials into one
/// shared-cursor sweep (sim/scheduler.h) — without a target that is one
/// round holding every point's max_trials — so points that stop early stop
/// consuming the machine while the rest keep it full. `collector` receives
/// the trial probes merged in (point, trial) order per round, one sweep's
/// sim.scheduler.* counters per round, and, with a target, the
/// sim.adaptive.* counters (points, trials_run, trials_saved, early_stops).
/// Results and merged telemetry are identical at any BACKFI_THREADS.
std::vector<per_estimate> packet_error_rates(
    std::span<const scenario_config> configs, const per_options& options,
    obs::collector* collector);

/// PER of one scenario (collector: config.collector).
per_estimate packet_error_rate(const scenario_config& config,
                               const per_options& options);

/// PER over exactly `trials` trials (0 when trials <= 0).
double packet_error_rate(const scenario_config& config, int trials);

}  // namespace backfi::sim
